#include "sim/port.hh"

#include "sim/clocked.hh"

namespace capcheck
{

namespace
{

std::string
describe(PortError::Kind kind, const std::string &a,
         const std::string &b)
{
    switch (kind) {
      case PortError::Kind::unbound:
        return "port '" + a + "' is not bound to any peer" +
               (b.empty() ? "" : " (" + b + ")");
      case PortError::Kind::doubleBind:
        return "double bind: '" + a + "' is already bound; cannot "
               "bind it to '" + b + "'";
      case PortError::Kind::roleMismatch:
        return "type mismatch: cannot bind '" + a + "' to '" + b +
               "'; a bind needs exactly one request and one response "
               "endpoint";
      case PortError::Kind::protocolMismatch:
        return "protocol mismatch: '" + a + "' and '" + b +
               "' speak different packet protocols";
      case PortError::Kind::selfBind:
        return "port '" + a + "' cannot be bound to itself";
      case PortError::Kind::duplicateName:
        return "duplicate name '" + a + "'" +
               (b.empty() ? "" : ": " + b);
      case PortError::Kind::unknownComponent:
        return "unknown component in port name '" + a + "'" +
               (b.empty() ? "" : "; known components: " + b);
      case PortError::Kind::unknownPort:
        return "unknown port '" + a + "'" +
               (b.empty() ? "" : "; known ports: " + b);
    }
    return "port error on '" + a + "'";
}

} // namespace

PortError::PortError(Kind kind, std::string what, std::string endpoint_a,
                     std::string endpoint_b)
    : std::runtime_error(std::move(what)), _kind(kind),
      _endpointA(std::move(endpoint_a)), _endpointB(std::move(endpoint_b))
{
}

const char *
portErrorKindName(PortError::Kind kind)
{
    switch (kind) {
      case PortError::Kind::unbound:
        return "unbound";
      case PortError::Kind::doubleBind:
        return "doubleBind";
      case PortError::Kind::roleMismatch:
        return "roleMismatch";
      case PortError::Kind::protocolMismatch:
        return "protocolMismatch";
      case PortError::Kind::selfBind:
        return "selfBind";
      case PortError::Kind::duplicateName:
        return "duplicateName";
      case PortError::Kind::unknownComponent:
        return "unknownComponent";
      case PortError::Kind::unknownPort:
        return "unknownPort";
    }
    return "?";
}

namespace
{

[[noreturn]] void
throwPortError(PortError::Kind kind, const std::string &a,
               const std::string &b = "")
{
    throw PortError(kind, describe(kind, a, b), a, b);
}

} // namespace

PortBase::PortBase(SimObject &owner, std::string name, Role role,
                   std::string protocol)
    : _owner(owner), _name(std::move(name)), _role(role),
      _protocol(std::move(protocol))
{
    owner.registerPort(*this);
}

PortBase::~PortBase()
{
    unbind();
}

std::string
PortBase::fullName() const
{
    return _owner.name() + "." + _name;
}

void
PortBase::unbind()
{
    if (_peer) {
        _peer->_peer = nullptr;
        _peer = nullptr;
    }
}

void
PortBase::requireBound(const char *operation) const
{
    if (!_peer)
        throwPortError(PortError::Kind::unbound, fullName(), operation);
}

void
bindPorts(PortBase &a, PortBase &b)
{
    if (&a == &b)
        throwPortError(PortError::Kind::selfBind, a.fullName());
    if (a.role() == b.role()) {
        throwPortError(PortError::Kind::roleMismatch, a.fullName(),
                       b.fullName());
    }
    if (a.protocol() != b.protocol()) {
        throwPortError(PortError::Kind::protocolMismatch, a.fullName(),
                       b.fullName());
    }
    if (a.bound()) {
        throwPortError(PortError::Kind::doubleBind, a.fullName(),
                       b.fullName());
    }
    if (b.bound()) {
        throwPortError(PortError::Kind::doubleBind, b.fullName(),
                       a.fullName());
    }
    a._peer = &b;
    b._peer = &a;
}

RequestPort::RequestPort(SimObject &owner, std::string name,
                         ResponseHandler &handler, std::string protocol)
    : PortBase(owner, std::move(name), Role::request,
               std::move(protocol)),
      handler(handler)
{
}

void
RequestPort::bind(ResponsePort &peer)
{
    bindPorts(*this, peer);
}

ResponsePort::ResponsePort(SimObject &owner, std::string name,
                           TimingConsumer &consumer, std::string protocol)
    : PortBase(owner, std::move(name), Role::response,
               std::move(protocol)),
      consumer(&consumer)
{
}

ResponsePort::ResponsePort(SimObject &owner, std::string name,
                           TryAcceptAtFn try_accept_at,
                           std::string protocol)
    : PortBase(owner, std::move(name), Role::response,
               std::move(protocol)),
      tryAtFn(std::move(try_accept_at))
{
}

void
ResponsePort::bind(RequestPort &peer)
{
    bindPorts(*this, peer);
}

void
ComponentRegistry::add(SimObject &obj)
{
    if (find(obj.name()) != nullptr) {
        throw PortError(PortError::Kind::duplicateName,
                        describe(PortError::Kind::duplicateName,
                                 obj.name(),
                                 "a component with this name is "
                                 "already registered"),
                        obj.name());
    }
    objs.push_back(&obj);
}

SimObject *
ComponentRegistry::find(const std::string &name) const
{
    for (SimObject *obj : objs) {
        if (obj->name() == name)
            return obj;
    }
    return nullptr;
}

PortBase &
ComponentRegistry::port(const std::string &dotted) const
{
    const auto dot = dotted.rfind('.');
    const std::string comp =
        dot == std::string::npos ? dotted : dotted.substr(0, dot);
    const std::string port_name =
        dot == std::string::npos ? "" : dotted.substr(dot + 1);

    SimObject *obj = find(comp);
    if (!obj) {
        std::string known;
        for (const std::string &n : names())
            known += (known.empty() ? "" : ", ") + n;
        throwPortError(PortError::Kind::unknownComponent, dotted, known);
    }
    PortBase *p = obj->findPort(port_name);
    if (!p) {
        std::string known;
        for (PortBase *q : obj->ports())
            known += (known.empty() ? "" : ", ") + q->localName();
        throwPortError(PortError::Kind::unknownPort, dotted, known);
    }
    return *p;
}

void
ComponentRegistry::bind(const std::string &from, const std::string &to)
{
    bindPorts(port(from), port(to));
}

std::vector<std::string>
ComponentRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(objs.size());
    for (SimObject *obj : objs)
        out.push_back(obj->name());
    return out;
}

} // namespace capcheck

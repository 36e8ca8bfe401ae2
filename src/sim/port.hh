/**
 * @file
 * gem5-style typed port/binding layer over the repo's packet protocol.
 * A RequestPort sends MemRequests downstream and receives MemResponses
 * back; a ResponsePort accepts MemRequests and sends MemResponses.
 * Peers are wired with bind(), which validates the pairing (unbound
 * use, double bind, role or protocol mismatch all raise a structured
 * PortError naming both endpoints instead of a raw assert), and a
 * ComponentRegistry resolves "component.port" names so an elaborator
 * can wire any topology from a declarative description.
 *
 * The ports are thin: a bound port forwards a call directly to its
 * peer's owner in the same stack frame, so converting a component from
 * peer pointers to ports changes no timing and no event ordering.
 */

#ifndef CAPCHECK_SIM_PORT_HH
#define CAPCHECK_SIM_PORT_HH

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/packet.hh"

namespace capcheck
{

class SimObject;
class RequestPort;
class ResponsePort;

/**
 * Structured port-layer diagnostic. Every message names the offending
 * endpoint(s) by their full "component.port" names, so a mis-wired
 * topology is debuggable from the error alone.
 */
class PortError : public std::runtime_error
{
  public:
    enum class Kind
    {
        unbound,          ///< used (or required) before any bind
        doubleBind,       ///< endpoint already has a peer
        roleMismatch,     ///< request-to-request / response-to-response
        protocolMismatch, ///< peers speak different packet protocols
        selfBind,         ///< a port bound to itself
        duplicateName,    ///< registry or owner already has this name
        unknownComponent, ///< registry lookup miss (component part)
        unknownPort,      ///< registry lookup miss (port part)
    };

    PortError(Kind kind, std::string what, std::string endpoint_a,
              std::string endpoint_b = "");

    Kind kind() const { return _kind; }
    /** Full name of the primary offending endpoint. */
    const std::string &endpointA() const { return _endpointA; }
    /** Full name of the other endpoint ("" when not applicable). */
    const std::string &endpointB() const { return _endpointB; }

  private:
    Kind _kind;
    std::string _endpointA;
    std::string _endpointB;
};

const char *portErrorKindName(PortError::Kind kind);

/**
 * Common state of both port roles: identity (owner + local name),
 * role, protocol tag and the peer link. Ports register with their
 * owning SimObject on construction and unbind automatically on
 * destruction, so a destroyed component never leaves a dangling peer.
 */
class PortBase
{
  public:
    enum class Role
    {
        request,
        response,
    };

    PortBase(SimObject &owner, std::string name, Role role,
             std::string protocol = "mem");
    virtual ~PortBase();

    PortBase(const PortBase &) = delete;
    PortBase &operator=(const PortBase &) = delete;

    SimObject &owner() const { return _owner; }
    const std::string &localName() const { return _name; }
    /** "owner.port", the name diagnostics and topologies use. */
    std::string fullName() const;

    Role role() const { return _role; }
    const std::string &protocol() const { return _protocol; }

    bool bound() const { return _peer != nullptr; }
    PortBase *peerBase() const { return _peer; }

    /** Drop the peer link on both sides (no-op when unbound). */
    void unbind();

    /**
     * Type-erased bind with full validation: exactly one request and
     * one response endpoint, same protocol, both unbound, not the
     * same port. @throw PortError naming both endpoints.
     */
    friend void bindPorts(PortBase &a, PortBase &b);

  protected:
    /** @throw PortError{unbound} when no peer is attached. */
    void requireBound(const char *operation) const;

    PortBase *_peer = nullptr;

  private:
    SimObject &_owner;
    std::string _name;
    Role _role;
    std::string _protocol;
};

void bindPorts(PortBase &a, PortBase &b);

/**
 * Master-side endpoint: the owner pushes requests downstream through
 * it and receives the matching responses on the ResponseHandler it
 * registered at construction.
 */
class RequestPort : public PortBase
{
  public:
    RequestPort(SimObject &owner, std::string name,
                ResponseHandler &handler, std::string protocol = "mem");

    void bind(ResponsePort &peer);

    /**
     * Hand the peer a request that enters it on cycle @p when (>= the
     * current cycle): a memory controller, router or check stage takes
     * it on that cycle; a crossbar slot holds it from then and can
     * grant it from @p grantable on. The default, @p when + 1, is a
     * beat issued or granted after that cycle's arbitration.
     * @return false when the peer cannot take it; a peer that refuses
     *         arms a retry (ResponseHandler::handleRetry).
     * @throw PortError{unbound} when no peer is bound.
     */
    bool trySendAt(const MemRequest &req, Cycles when,
                   Cycles grantable); // inline below
    bool
    trySendAt(const MemRequest &req, Cycles when)
    {
        return trySendAt(req, when, when + 1);
    }

    ResponseHandler &responseHandler() const { return handler; }

  private:
    ResponseHandler &handler;
};

/**
 * Slave-side endpoint: accepts requests on behalf of its owner and
 * pushes responses back to the peer's ResponseHandler. The admission
 * functions are supplied at construction so multi-slot components
 * (e.g. one interconnect master slot per port) can expose per-port
 * admission without a per-port subclass.
 */
class ResponsePort : public PortBase
{
  public:
    using TryAcceptAtFn =
        std::function<bool(const MemRequest &, Cycles, Cycles)>;

    /** Sink backed by the owner's TimingConsumer interface. */
    ResponsePort(SimObject &owner, std::string name,
                 TimingConsumer &consumer, std::string protocol = "mem");

    /** Sink backed by an explicit admission function (slot ports),
     *  called with the request, its entry and grantable cycles. */
    ResponsePort(SimObject &owner, std::string name,
                 TryAcceptAtFn try_accept_at, std::string protocol = "mem");

    void bind(RequestPort &peer);

    /** Admit a request into the owner (see
     *  RequestPort::trySendAt()). */
    bool
    tryAcceptAt(const MemRequest &req, Cycles when, Cycles grantable)
    {
        return consumer ? consumer->tryAcceptAt(req, when)
                        : tryAtFn(req, when, grantable);
    }

    /**
     * Deliver a response to the peer's ResponseHandler.
     * @throw PortError{unbound} when no peer is bound.
     */
    void sendResponse(const MemResponse &resp); // inline below

    /**
     * Tell the peer's ResponseHandler that this endpoint can take a
     * request again from cycle @p when on
     * (ResponseHandler::handleRetry). No-op when unbound: an unbound
     * slot has nobody to wake.
     */
    void sendRetry(Cycles when); // inline below

  private:
    /** The owner's admission (consumer-backed ports), else tryAtFn. */
    TimingConsumer *consumer = nullptr;
    TryAcceptAtFn tryAtFn;
};

/*
 * The per-packet forwarding calls are inline (defined here, after
 * both classes, because each casts its peer to the other role): every
 * simulated beat crosses a port twice, and the cross-TU call cost
 * dwarfed the one-pointer forward being done. The unbound error path
 * stays out of line in requireBound().
 */

inline bool
RequestPort::trySendAt(const MemRequest &req, Cycles when, Cycles grantable)
{
    if (!_peer) [[unlikely]]
        requireBound("trySendAt");
    return static_cast<ResponsePort *>(_peer)->tryAcceptAt(req, when,
                                                           grantable);
}

inline void
ResponsePort::sendResponse(const MemResponse &resp)
{
    if (!_peer) [[unlikely]]
        requireBound("sendResponse");
    static_cast<RequestPort *>(_peer)->responseHandler().handleResponse(
        resp);
}

inline void
ResponsePort::sendRetry(Cycles when)
{
    if (!_peer)
        return;
    static_cast<RequestPort *>(_peer)->responseHandler().handleRetry(
        when);
}

/**
 * Named-component registry: the elaborator's symbol table. Components
 * register under their topology node name; ports resolve by the
 * dotted "component.port" syntax used in topology edge lists.
 * Registration order is preserved (names() is deterministic).
 */
class ComponentRegistry
{
  public:
    /** @throw PortError{duplicateName} on a name collision. */
    void add(SimObject &obj);

    /** Component by name; nullptr when absent. */
    SimObject *find(const std::string &name) const;

    /**
     * Port by dotted name ("xbar.mem_side").
     * @throw PortError{unknownComponent|unknownPort} with the known
     *        names listed in the message.
     */
    PortBase &port(const std::string &dotted) const;

    /** bindPorts(port(from), port(to)). */
    void bind(const std::string &from, const std::string &to);

    /** Registered component names, in registration order. */
    std::vector<std::string> names() const;

    const std::vector<SimObject *> &components() const { return objs; }

  private:
    std::vector<SimObject *> objs;
};

} // namespace capcheck

#endif // CAPCHECK_SIM_PORT_HH

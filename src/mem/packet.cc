#include "mem/packet.hh"

#include <sstream>

#include "base/logging.hh"

namespace capcheck
{

const char *
memCmdName(MemCmd cmd)
{
    switch (cmd) {
      case MemCmd::read:
        return "read";
      case MemCmd::write:
        return "write";
    }
    return "?";
}

std::string
MemRequest::toString() const
{
    std::ostringstream os;
    os << memCmdName(cmd) << " 0x" << std::hex << addr << std::dec << "+"
       << size << " port=" << srcPort << " task=" << task
       << " obj=" << object;
    return os.str();
}

bool
TimingConsumer::tryAcceptAt(const MemRequest &req, Cycles when)
{
    panic("consumer cannot accept ahead: %s at cycle %llu",
          req.toString().c_str(), static_cast<unsigned long long>(when));
}

} // namespace capcheck

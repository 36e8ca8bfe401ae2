#include "mem/packet.hh"

#include <sstream>

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

} // namespace capcheck

#include "mem/router.hh"

#include "base/logging.hh"

namespace capcheck
{

AddrRouter::AddrRouter(EventQueue &eq, stats::StatGroup *parent_stats,
                       unsigned num_channels,
                       std::uint64_t interleave_bytes, std::string name)
    : SimObject(eq, std::move(name), parent_stats),
      cpuSidePort(*this, "cpu_side",
                  [this](const MemRequest &req, Cycles when,
                         Cycles grantable) {
                      return route(req, when, grantable);
                  }),
      interleave(interleave_bytes ? interleave_bytes
                                  : defaultInterleave)
{
    if (num_channels == 0)
        fatal("AddrRouter needs at least one channel");
    for (unsigned i = 0; i < num_channels; ++i) {
        channels.push_back(std::make_unique<RequestPort>(
            *this, "mem_side" + std::to_string(i),
            static_cast<ResponseHandler &>(*this)));
        beatsPerChannel.push_back(std::make_unique<stats::Scalar>(
            stats, "beats" + std::to_string(i),
            "beats routed to channel " + std::to_string(i)));
    }
}

RequestPort &
AddrRouter::memSide(unsigned channel)
{
    return *channels.at(channel);
}

bool
AddrRouter::route(const MemRequest &req, Cycles when, Cycles grantable)
{
    const unsigned channel = channelFor(req.addr);
    if (!channels[channel]->trySendAt(req, when, grantable))
        return false;
    ++*beatsPerChannel[channel];
    return true;
}

void
AddrRouter::handleResponse(const MemResponse &resp)
{
    cpuSidePort.sendResponse(resp);
}

void
AddrRouter::handleRetry(Cycles when)
{
    // Any channel's retry may be the one the component above waits
    // for; a retry it does not need is harmless.
    cpuSidePort.sendRetry(when);
}

std::uint64_t
AddrRouter::routedBeats(unsigned channel) const
{
    return static_cast<std::uint64_t>(
        beatsPerChannel.at(channel)->value());
}

} // namespace capcheck

/**
 * @file
 * Address-interleaved channel router: a combinational demux that
 * forwards each request to one of N downstream memory channels by its
 * address, and merges the channels' responses back upstream. It adds
 * no cycles — the beat moves through in the same stack frame — so a
 * single-channel router is timing-identical to a straight wire, and a
 * multi-channel one models the bandwidth of parallel DRAM controllers
 * behind one check stage.
 */

#ifndef CAPCHECK_MEM_ROUTER_HH
#define CAPCHECK_MEM_ROUTER_HH

#include <memory>
#include <vector>

#include "base/stats.hh"
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/port.hh"

namespace capcheck
{

class AddrRouter : public SimObject, public ResponseHandler
{
  public:
    /** Default interleave granule: one cache-line-sized beat. */
    static constexpr std::uint64_t defaultInterleave = 64;

    AddrRouter(EventQueue &eq, stats::StatGroup *parent_stats,
               unsigned num_channels,
               std::uint64_t interleave_bytes = defaultInterleave,
               std::string name = "router");

    /** Upstream-facing port; bind to a check stage or interconnect. */
    ResponsePort &cpuSide() { return cpuSidePort; }

    /** Downstream-facing port of channel @p channel ("mem_side<i>"). */
    RequestPort &memSide(unsigned channel);

    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels.size());
    }

    std::uint64_t interleaveBytes() const { return interleave; }

    /** Channel an address routes to (granule round-robin). */
    unsigned channelFor(Addr addr) const
    {
        return static_cast<unsigned>((addr / interleave) %
                                     channels.size());
    }

    /** Demux a request to its channel, with its cycles (the
     *  admission function behind cpu_side; see
     *  RequestPort::trySendAt()). */
    bool route(const MemRequest &req, Cycles when, Cycles grantable);

    /** ResponseHandler: merge channel responses back upstream. */
    void handleResponse(const MemResponse &resp) override;

    /** ResponseHandler: pass a channel's retry upstream. */
    void handleRetry(Cycles when) override;

    std::uint64_t routedBeats(unsigned channel) const;

  private:
    ResponsePort cpuSidePort;
    std::vector<std::unique_ptr<RequestPort>> channels;
    std::uint64_t interleave;
    std::vector<std::unique_ptr<stats::Scalar>> beatsPerChannel;
};

} // namespace capcheck

#endif // CAPCHECK_MEM_ROUTER_HH

/**
 * @file
 * Memory request/response types carried across the simulated AXI
 * interconnect, including the provenance metadata (task and object IDs)
 * that the CapChecker's Fine mode consumes.
 */

#ifndef CAPCHECK_MEM_PACKET_HH
#define CAPCHECK_MEM_PACKET_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace capcheck
{

/** Memory command. */
enum class MemCmd : std::uint8_t
{
    read,
    write,
};

const char *memCmdName(MemCmd cmd);

/**
 * A single beat on the interconnect. The paper's platform admits one
 * memory access per clock cycle, so requests are not split into bursts
 * here; @c size is the beat's byte count (<= 64).
 */
struct MemRequest
{
    MemCmd cmd = MemCmd::read;
    Addr addr = 0;
    std::uint32_t size = 0;

    /** Master port that issued the request (interconnect provenance). */
    PortId srcPort = 0;
    /** Accelerator task the request belongs to. */
    TaskId task = invalidTaskId;
    /**
     * Object the access intends to touch. In Fine mode this arrives as
     * hardware interface metadata; in Coarse mode it is recovered from
     * the top bits of the address.
     */
    ObjectId object = invalidObjectId;

    /** Unique id for response matching. */
    std::uint64_t id = 0;

    std::string toString() const;
};

/**
 * A request as a probe reports it, with the cycle it is reported for
 * (issue, slot entry, memory accept). Components that compute their
 * timing report ahead, so the cycle may lie after the current one.
 */
struct TimedRequest
{
    const MemRequest *req;
    Cycles cycle;
};

/**
 * Response delivered back to the issuing master. A fixed-latency
 * downstream knows a response's cycle when it accepts the request, so
 * it sends the response up at once, stamped with the cycle it reaches
 * the master; the master acts on it from that cycle on.
 */
struct MemResponse
{
    std::uint64_t id = 0;
    PortId srcPort = 0;
    bool ok = true; ///< false when a protection check rejected the access
    Cycles due = 0; ///< cycle the response reaches the master
};

/**
 * Downstream interface: components that accept timed requests (check
 * stage, router, memory controller).
 */
class TimingConsumer
{
  public:
    virtual ~TimingConsumer() = default;

    /**
     * Take a request that enters this consumer on cycle @p when
     * (>= the current cycle).
     * @return false when the consumer cannot take it then; it arms a
     *         retry for the cycle it can (ResponseHandler::handleRetry).
     */
    virtual bool tryAcceptAt(const MemRequest &req, Cycles when) = 0;
};

/** Upstream interface: components that receive responses. */
class ResponseHandler
{
  public:
    virtual ~ResponseHandler() = default;

    virtual void handleResponse(const MemResponse &resp) = 0;

    /**
     * The component below can take a request again from cycle @p when
     * (>= the current cycle): a crossbar slot freed by its grant, or a
     * check stage whose admission guard refused. A master that waits
     * for it instead of offering again every cycle re-offers then.
     * Spurious calls must be harmless.
     */
    virtual void handleRetry([[maybe_unused]] Cycles when) {}
};

} // namespace capcheck

#endif // CAPCHECK_MEM_PACKET_HH

/**
 * @file
 * RemoteService: the SweepService client that submits batches to a
 * capcheckd daemon over its Unix-domain socket. Simulation and
 * observability artefacts happen daemon-side (same filesystem);
 * result JSON and the sweep manifest are written client-side from
 * the streamed result frames, so a remote sweep leaves exactly the
 * artefact tree an in-process sweep would.
 */

#ifndef CAPCHECK_SERVICE_REMOTE_HH
#define CAPCHECK_SERVICE_REMOTE_HH

#include <mutex>

#include "base/json_value.hh"
#include "service/frame.hh"
#include "service/socket.hh"
#include "service/sweep_service.hh"

namespace capcheck::service
{

/**
 * One framed request/reply exchange over the connected socket @p fd:
 * the reply, parsed. Throws ServiceError when the daemon closes the
 * connection, sends a bad frame or an unparseable reply, or answers
 * with a structured error. @p meter, if set, counts the wire bytes.
 */
json::JsonValue roundTrip(int fd, const std::string &payload,
                          FrameMeter *meter = nullptr);

class RemoteService : public SweepService
{
  public:
    /**
     * Connect to the daemon at @p opts.serverSocket and verify it
     * answers ping. Throws ServiceError(errConnect) when nothing is
     * listening — a misspelled socket should fail before a harness
     * builds ten thousand requests.
     */
    explicit RemoteService(harness::SweepOptions opts);

    std::vector<harness::RunOutcome>
    submit(const std::vector<harness::RunRequest> &requests,
           const std::string &sweep_name,
           const Sink &sink = {}) override;

    ServiceStats stats() override;

    bool ping() override;

  private:
    /** stats() with `mtx` held. */
    ServiceStats queryStats();

    harness::SweepOptions opts;
    std::mutex mtx;
    Fd conn;
    std::uint64_t nextBatch = 1;
    /** Client-side wire accounting over this connection. */
    FrameMeter meter;
};

} // namespace capcheck::service

#endif // CAPCHECK_SERVICE_REMOTE_HH

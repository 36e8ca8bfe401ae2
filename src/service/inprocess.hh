/**
 * @file
 * InProcessService: the SweepService implementation that runs
 * simulations on this process's own SweepRunner. It is the
 * no-daemon default, and doubles as the reference semantics the
 * remote path must reproduce byte-for-byte.
 */

#ifndef CAPCHECK_SERVICE_INPROCESS_HH
#define CAPCHECK_SERVICE_INPROCESS_HH

#include "harness/sweep_runner.hh"
#include "service/sweep_service.hh"

namespace capcheck::service
{

class InProcessService : public SweepService
{
  public:
    explicit InProcessService(const harness::SweepOptions &opts)
        : runner(opts)
    {
    }

    std::vector<harness::RunOutcome>
    submit(const std::vector<harness::RunRequest> &requests,
           const std::string &sweep_name,
           const Sink &sink = {}) override;

    ServiceStats stats() override;

    bool ping() override { return true; }

  private:
    harness::SweepRunner runner;
};

} // namespace capcheck::service

#endif // CAPCHECK_SERVICE_INPROCESS_HH

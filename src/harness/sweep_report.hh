/**
 * @file
 * What a sweep reports, whichever backend ran it: the progress lines,
 * the "[sweep NAME]" summary line, and the run-<hash>.json files plus
 * <sweep>.manifest.json under the JSON directory. SweepRunner and the
 * capcheckd client (service::RemoteService) both report through here,
 * so in-process and remote sweeps print the same lines and leave the
 * same files.
 */

#ifndef CAPCHECK_HARNESS_SWEEP_REPORT_HH
#define CAPCHECK_HARNESS_SWEEP_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "harness/result_json.hh"
#include "obs/prof.hh"

namespace capcheck::harness
{

/** One batch's progress lines; silent when the stream is null.
 *  Thread-safe: workers report as their runs finish. */
class ProgressLog
{
  public:
    /** @p fresh is the N the "[k/N]" lines count up to. */
    ProgressLog(std::ostream *os, std::size_t fresh) : os(os), fresh(fresh)
    {
    }

    /** "[k/N] LABEL cycles=C cache=miss wall=Wms" */
    void ran(const RunRequest &request, std::uint64_t cycles,
             double wall_millis);
    /** "[cache] LABEL cycles=C cache=hit" */
    void cached(const RunRequest &request, std::uint64_t cycles);
    /** "[fail] LABEL: ERROR" */
    void failed(const RunRequest &request, const std::string &error);
    /** "[sweep NAME] R requests: ..."; @p remote marks a daemon run. */
    void summary(const std::string &sweep_name,
                 const SweepProfile &profile, bool remote);

  private:
    std::ostream *os;
    std::size_t fresh;
    std::size_t ranSoFar = 0;
    std::mutex mtx;
};

/**
 * Write one run-<hash>.json per distinct request (at its first
 * outcome) and <sweep_name>.manifest.json, listing every outcome,
 * under @p dir. Outcome i's body is (*bodies)[i] when that is given
 * and non-empty, else it is rendered while it is written; with
 * @p profiles, its render and write count in (*profiles)[i] if set.
 */
void writeSweepArtefacts(const std::string &dir,
                         const std::string &sweep_name,
                         const std::vector<RunOutcome> &outcomes,
                         const SweepProfile &profile,
                         const std::vector<std::string> *bodies = nullptr,
                         const std::vector<prof::RunProfile *> *profiles =
                             nullptr);

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_SWEEP_REPORT_HH

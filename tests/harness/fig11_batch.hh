/**
 * @file
 * Fig. 11's batch, shared by the task-memo and the service tests.
 */

#ifndef CAPCHECK_TESTS_HARNESS_FIG11_BATCH_HH
#define CAPCHECK_TESTS_HARNESS_FIG11_BATCH_HH

#include <vector>

#include "harness/run_request.hh"
#include "system/soc_config_builder.hh"

namespace capcheck::harness
{

/**
 * gemm_ncubed at 1-8 tasks in three modes, seed 1, with stats. The
 * 8-task runs prepare 8 tasks for the plain core and 8 for both
 * accelerator modes; every other preparation is a prefix of those:
 * 3 x (1 + ... + 8) = 108 preparations, 16 distinct.
 */
inline std::vector<RunRequest>
fig11Batch()
{
    using system::SystemMode;
    std::vector<RunRequest> requests;
    for (unsigned tasks = 1; tasks <= 8; ++tasks) {
        for (const SystemMode mode :
             {SystemMode::cpu, SystemMode::ccpuAccel,
              SystemMode::ccpuCaccel}) {
            requests.push_back(RunRequest::single(
                "gemm_ncubed",
                system::SocConfigBuilder()
                    .mode(mode)
                    .seed(1)
                    .collectStats(true)
                    .build(),
                tasks));
        }
    }
    return requests;
}

} // namespace capcheck::harness

#endif // CAPCHECK_TESTS_HARNESS_FIG11_BATCH_HH

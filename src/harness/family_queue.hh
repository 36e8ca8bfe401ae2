/**
 * @file
 * FamilyQueue: the job scheduler that SweepRunner and capcheckd share.
 *
 * The jobs of one push that share a benchmark list and a seed form a
 * family. Their runs prepare many of the same tasks, so one worker
 * claims a family whole and runs its jobs back to back, the most tasks
 * first (a run with fewer tasks of the same benchmarks and seed
 * prepares a prefix of them), and they share one task memo that dies
 * with the family's last job. Families are claimed in the order they
 * were pushed, so no push can starve; only once every family is
 * claimed does a worker steal single jobs, each from the family with
 * the most jobs left. The family key only schedules: the memo's exact
 * key decides every reuse.
 *
 * Not thread-safe: callers serialize every call.
 */

#ifndef CAPCHECK_HARNESS_FAMILY_QUEUE_HH
#define CAPCHECK_HARNESS_FAMILY_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/run_request.hh"
#include "system/task_memo.hh"

namespace capcheck::harness
{

/** Task preparations a family's memo counted over its life. */
struct TaskCounts
{
    std::uint64_t prepared = 0;
    std::uint64_t reused = 0;
};

template <class Item>
class FamilyQueue
{
    struct Family
    {
        std::vector<Item> jobs;     ///< most tasks first
        std::size_t next = 0;       ///< the next job to hand out
        std::size_t unfinished = 0; ///< jobs not yet finished
        std::shared_ptr<system::TaskMemo> memo;

        std::size_t left() const { return jobs.size() - next; }
    };

  public:
    /** One job handed to a worker. A worker keeps one Lease across
     *  take() calls: it also remembers the family the worker claimed. */
    class Lease
    {
      public:
        Item item{};
        /** The family's memo; null once the job is finished. */
        std::shared_ptr<system::TaskMemo> memo;

      private:
        friend class FamilyQueue;
        std::shared_ptr<Family> family; ///< the job's family
        std::shared_ptr<Family> own;    ///< the family the worker claimed
    };

    /**
     * Queue @p items as new families after every family already
     * queued; @p request_of(item) names the RunRequest each item runs.
     */
    template <class RequestOf>
    void
    push(std::vector<Item> items, RequestOf request_of)
    {
        // Families in order of first appearance.
        std::vector<std::shared_ptr<Family>> families;
        std::map<std::pair<std::vector<std::string>, std::uint64_t>,
                 std::shared_ptr<Family>>
            familyOf;
        for (Item &item : items) {
            const RunRequest &req = request_of(item);
            std::shared_ptr<Family> &family =
                familyOf[{req.benchmarks, req.config.seed}];
            if (!family)
                family = families.emplace_back(std::make_shared<Family>());
            family->jobs.push_back(std::move(item));
        }
        for (std::shared_ptr<Family> &family : families) {
            std::stable_sort(family->jobs.begin(), family->jobs.end(),
                             [&](const Item &a, const Item &b) {
                                 return request_of(a).numTasks >
                                        request_of(b).numTasks;
                             });
            std::vector<system::RunKind> kinds;
            for (const Item &job : family->jobs) {
                kinds.push_back(
                    system::runKindOf(request_of(job).config.mode));
            }
            family->memo = std::make_shared<system::TaskMemo>(kinds);
            family->unfinished = family->jobs.size();
            queued += family->jobs.size();
            unclaimed.push_back(std::move(family));
        }
    }

    /**
     * Hand the worker that holds @p lease a job: the next of its own
     * family; else the first of the oldest unclaimed family, which
     * becomes its own; else one job of the family with the most jobs
     * left. @return false when no job is queued.
     */
    bool
    take(Lease &lease)
    {
        std::erase_if(claimed, [](const std::shared_ptr<Family> &f) {
            return f->left() == 0;
        });
        std::shared_ptr<Family> from = lease.own;
        if (!from || from->left() == 0) {
            if (!unclaimed.empty()) {
                from = lease.own = std::move(unclaimed.front());
                unclaimed.pop_front();
                claimed.push_back(from);
            } else {
                from = nullptr;
                for (const std::shared_ptr<Family> &f : claimed) {
                    if (!from || f->left() > from->left())
                        from = f;
                }
                if (!from)
                    return false;
            }
        }
        lease.item = std::move(from->jobs[from->next++]);
        lease.memo = from->memo;
        lease.family = std::move(from);
        --queued;
        return true;
    }

    /**
     * Retire the job @p lease holds. The family's last job takes its
     * memo down with it. @return the memo's counts when this was the
     * family's last job.
     */
    std::optional<TaskCounts>
    finish(Lease &lease)
    {
        lease.memo.reset();
        const std::shared_ptr<Family> family = std::move(lease.family);
        if (--family->unfinished > 0)
            return std::nullopt;
        const TaskCounts counts{family->memo->tasksPrepared(),
                                family->memo->tasksReused()};
        family->memo.reset();
        return counts;
    }

    /** Jobs queued and not yet handed out. */
    std::size_t size() const { return queued; }
    bool empty() const { return queued == 0; }

  private:
    std::deque<std::shared_ptr<Family>> unclaimed; ///< in push order
    std::vector<std::shared_ptr<Family>> claimed;  ///< with jobs left
    std::size_t queued = 0;
};

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_FAMILY_QUEUE_HH

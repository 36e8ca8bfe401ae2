/**
 * @file
 * FamilyQueue on its own: family order, the order within a family,
 * claiming before stealing, and the memo's lifetime.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/family_queue.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using namespace capcheck::harness;

namespace
{

using Queue = FamilyQueue<std::size_t>;

/** One request per (benchmark, seed, tasks) triple. */
struct Batch
{
    std::vector<RunRequest> requests;

    Batch &
    add(const std::string &benchmark, std::uint64_t seed, unsigned tasks)
    {
        requests.push_back(RunRequest::single(
            benchmark, system::SocConfigBuilder().seed(seed).build(),
            tasks));
        return *this;
    }

    /** Push every request (items are indices from @p first on). */
    void
    pushTo(Queue &queue, std::size_t first = 0) const
    {
        std::vector<std::size_t> items;
        for (std::size_t i = 0; i < requests.size(); ++i)
            items.push_back(first + i);
        queue.push(items, [&](std::size_t i) -> const RunRequest & {
            return requests[i - first];
        });
    }
};

/** The items one worker takes until the queue is empty. */
std::vector<std::size_t>
drain(Queue &queue)
{
    std::vector<std::size_t> order;
    Queue::Lease lease;
    while (queue.take(lease)) {
        order.push_back(lease.item);
        queue.finish(lease);
    }
    return order;
}

TEST(FamilyQueue, FamiliesInFirstAppearanceOrderMostTasksFirst)
{
    Batch batch;
    batch.add("aes", 1, 2)  // 0: family aes/1
        .add("kmp", 1, 1)   // 1: family kmp/1
        .add("aes", 1, 4)   // 2
        .add("aes", 2, 1)   // 3: family aes/2
        .add("kmp", 1, 3)   // 4
        .add("aes", 1, 2);  // 5: ties keep their order
    Queue queue;
    batch.pushTo(queue);
    EXPECT_EQ(queue.size(), 6u);
    EXPECT_EQ(drain(queue), (std::vector<std::size_t>{2, 0, 5, 4, 1, 3}));
    EXPECT_TRUE(queue.empty());
}

TEST(FamilyQueue, LaterPushesQueueBehindAndShareNoMemo)
{
    Batch first;
    first.add("aes", 1, 1).add("kmp", 1, 1);
    Batch second;
    second.add("aes", 1, 2);
    Queue queue;
    first.pushTo(queue);
    second.pushTo(queue, 10);

    EXPECT_EQ(drain(queue), (std::vector<std::size_t>{0, 1, 10}));

    // Same benchmarks and seed, but another push: another family.
    Queue again;
    first.pushTo(again);
    second.pushTo(again, 10);
    Queue::Lease a;
    Queue::Lease b;
    Queue::Lease c;
    ASSERT_TRUE(again.take(a) && again.take(b) && again.take(c));
    EXPECT_EQ(c.item, 10u);
    EXPECT_NE(a.memo, c.memo);
}

TEST(FamilyQueue, WorkersStealOnlyOnceEveryFamilyIsClaimed)
{
    Batch batch;
    batch.add("aes", 1, 3).add("aes", 1, 2).add("aes", 1, 1) // 0-2
        .add("kmp", 1, 2).add("kmp", 1, 1)                   // 3-4
        .add("nw", 1, 1);                                    // 5
    Queue queue;
    batch.pushTo(queue);
    Queue::Lease a;
    Queue::Lease b;
    Queue::Lease c;

    // Each worker claims a family of its own before anyone steals.
    ASSERT_TRUE(queue.take(a));
    EXPECT_EQ(a.item, 0u);
    ASSERT_TRUE(queue.take(b));
    EXPECT_EQ(b.item, 3u);
    ASSERT_TRUE(queue.take(a));
    EXPECT_EQ(a.item, 1u);
    ASSERT_TRUE(queue.take(c));
    EXPECT_EQ(c.item, 5u);

    // c's family is done and none is unclaimed: c steals from the
    // family with the most jobs left (kmp, one left; aes, one left:
    // the first claimed wins the tie).
    ASSERT_TRUE(queue.take(c));
    EXPECT_EQ(c.item, 2u);
    // a's own family is empty now, so a steals too.
    ASSERT_TRUE(queue.take(a));
    EXPECT_EQ(a.item, 4u);
    EXPECT_FALSE(queue.take(b));
    EXPECT_TRUE(queue.empty());
}

TEST(FamilyQueue, StealsFromTheFamilyWithTheMostJobsLeft)
{
    Batch batch;
    batch.add("aes", 1, 1)                                  // 0
        .add("kmp", 1, 3).add("kmp", 1, 2).add("kmp", 1, 1) // 1-3
        .add("nw", 1, 2).add("nw", 1, 1);                   // 4-5
    Queue queue;
    batch.pushTo(queue);
    Queue::Lease a;
    Queue::Lease b;
    Queue::Lease c;
    ASSERT_TRUE(queue.take(a) && queue.take(b) && queue.take(c));
    EXPECT_EQ(b.item, 1u);
    EXPECT_EQ(c.item, 4u);
    ASSERT_TRUE(queue.take(a)); // kmp has 2 left, nw 1
    EXPECT_EQ(a.item, 2u);
}

TEST(FamilyQueue, MemoDiesWithTheFamilysLastJob)
{
    Batch batch;
    batch.add("aes", 1, 2).add("aes", 1, 1).add("kmp", 1, 1);
    Queue queue;
    batch.pushTo(queue);
    Queue::Lease a;
    Queue::Lease b;
    ASSERT_TRUE(queue.take(a)); // claims aes
    ASSERT_TRUE(queue.take(b)); // claims kmp
    EXPECT_TRUE(queue.finish(b).has_value());
    ASSERT_TRUE(queue.take(b)); // steals aes's second job
    EXPECT_EQ(a.item, 0u);
    EXPECT_EQ(b.item, 1u);
    ASSERT_EQ(a.memo, b.memo);
    const std::weak_ptr<system::TaskMemo> memo = a.memo;

    EXPECT_FALSE(queue.finish(a).has_value());
    EXPECT_EQ(a.memo, nullptr);
    EXPECT_FALSE(memo.expired()) << "freed while a job still runs";

    const auto counts = queue.finish(b);
    ASSERT_TRUE(counts.has_value());
    EXPECT_EQ(counts->prepared, 0u);
    EXPECT_EQ(counts->reused, 0u);
    EXPECT_TRUE(memo.expired()) << "outlived the family's last job";
}

} // namespace

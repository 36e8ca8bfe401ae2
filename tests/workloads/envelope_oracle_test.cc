/**
 * @file
 * Differential test of the batched envelopes against the per-access
 * reference envelopes (ref_envelopes.hh): every kernel, 8 tasks, run
 * under the CPU cost model with CHERI off and on and under the trace
 * recorder. Each side gets its own memory with a valid capability tag
 * planted on every buffer granule, so both must clear exactly the tags
 * their stores cover. Cycles, loads, stores, cache misses, trace ops,
 * memory bytes and tag counts must all match.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/trace_accessor.hh"
#include "base/bitfield.hh"
#include "cpu/cpu_model.hh"
#include "ref_envelopes.hh"
#include "workloads/kernel.hh"

namespace capcheck
{
namespace
{

constexpr unsigned numTasks = 8;

enum class Envelope
{
    cpu,
    ccpu,
    trace,
};

/** Everything a run leaves behind that the two sides must agree on. */
struct Outcome
{
    /** cycles, loads, stores, misses of every CPU envelope, in order. */
    std::vector<std::uint64_t> counters;
    /** Every recorded op, decoded. */
    std::vector<accel::TraceRecord> ops;
    /** Trace side-table records, summed over the tasks. */
    std::size_t sideEntries = 0;
    std::vector<std::uint8_t> bytes;
    /** countTags() after each task's init and run, and at the end. */
    std::vector<std::uint64_t> tags;
    std::uint64_t planted = 0;
    bool correct = true;
};

template <typename Cpu>
void
count(Outcome &out, Cpu &cpu)
{
    out.counters.insert(out.counters.end(),
                        {cpu.cycles(), cpu.loads(), cpu.stores(),
                         cpu.cacheMisses()});
}

template <typename Cpu, typename Trace>
Outcome
runKernel(const std::string &name, Envelope env)
{
    // A tagged capability whose 16 bytes are all zero: planting it
    // sets the tag without changing what the kernel reads.
    const cheri::Capability zeroCap =
        cheri::Capability::fromCompressed(true, 0, 0);
    const cheri::Capability root = cheri::Capability::root();

    Outcome out;
    TaggedMemory mem(16 << 20);
    Rng rng(17);
    Addr next = 0x1000;
    for (unsigned t = 0; t < numTasks; ++t) {
        const auto kernel = workloads::createKernel(name);
        std::vector<BufferMapping> buffers;
        for (const workloads::BufferDef &def : kernel->spec().buffers) {
            buffers.push_back(
                {next, def.size, root.setBounds(next, def.size)});
            for (Addr g = next; g < next + def.size;
                 g += TaggedMemory::capGranule) {
                mem.writeCap(g, zeroCap);
                ++out.planted;
            }
            next = roundUp(next + def.size, 64);
        }

        {
            Cpu init(mem, buffers, false);
            kernel->init(init, rng);
            count(out, init);
        }
        out.tags.push_back(mem.countTags());

        if (env == Envelope::trace) {
            Trace tracer(mem, kernel->spec(), buffers);
            kernel->run(tracer);
            const accel::InstanceTrace trace = tracer.take();
            for (std::size_t i = 0; i < trace.size(); ++i)
                out.ops.push_back(trace.at(i));
            out.sideEntries += trace.sideEntries();
        } else {
            Cpu cpu(mem, buffers, env == Envelope::ccpu);
            cpu.chargeTaskSetup();
            kernel->run(cpu);
            count(out, cpu);
        }
        out.tags.push_back(mem.countTags());

        Cpu check(mem, buffers, false);
        out.correct &= kernel->check(check);
        count(out, check);
    }
    out.bytes.resize(next);
    mem.read(0, out.bytes.data(), next);
    out.tags.push_back(mem.countTags());
    return out;
}

class EnvelopeOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EnvelopeOracle, BatchedMatchesPerAccess)
{
    for (const Envelope env :
         {Envelope::cpu, Envelope::ccpu, Envelope::trace}) {
        SCOPED_TRACE(env == Envelope::cpu    ? "cpu"
                     : env == Envelope::ccpu ? "ccpu"
                                             : "trace");
        const Outcome ref =
            runKernel<test::RefCpuAccessor, test::RefTraceAccessor>(
                GetParam(), env);
        const Outcome fast =
            runKernel<CpuAccessor, accel::TraceAccessor>(GetParam(), env);
        EXPECT_TRUE(ref.correct);
        EXPECT_EQ(fast.correct, ref.correct);
        EXPECT_EQ(fast.counters, ref.counters);
        EXPECT_EQ(fast.ops.size(), ref.ops.size());
        EXPECT_TRUE(fast.ops == ref.ops);
        // Recorded kernels fit every op inline.
        EXPECT_EQ(fast.sideEntries, 0u);
        EXPECT_TRUE(fast.bytes == ref.bytes);
        EXPECT_EQ(fast.tags, ref.tags);
        // The kernels' stores clear planted tags, so the tag counts
        // compare real work of the tag discipline.
        EXPECT_LT(ref.tags.back(), ref.planted);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, EnvelopeOracle,
    ::testing::ValuesIn(workloads::allKernelNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace capcheck

/**
 * @file
 * Differential fuzzer for the batched envelopes. Random streams of
 * ld/st/compute/barrier/copy, with counter reads that drain the access
 * log mid-stream, run under CpuAccessor (CHERI off and on) or
 * TraceAccessor and under the per-access reference envelopes
 * (tests/workloads/ref_envelopes.hh), each side on its own memory.
 * Streams run up to three access logs long, so they cross the log's
 * capacity boundary, and their buffers carry random capabilities and
 * random tags, so some accesses are refused. Both sides must refuse
 * the same accesses with the same panic, load the same bytes, and end
 * with the same counters, trace ops, memory bytes and tags.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "../workloads/ref_envelopes.hh"
#include "accel/trace_accessor.hh"
#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "cpu/cpu_model.hh"
#include "fuzz_env.hh"

namespace capcheck
{
namespace
{

constexpr std::uint64_t memBytes = 4096;

struct Setup
{
    workloads::KernelSpec spec;
    std::vector<BufferMapping> buffers;
};

/** A capability for [base, base+size) that is sometimes narrower or
 *  wider, lacks load or store permission, is sealed or untagged. */
cheri::Capability
randomCap(Rng &rng, Addr base, std::uint64_t size)
{
    const cheri::Capability root = cheri::Capability::root();
    if (rng.nextBounded(4) != 0)
        return root.setBounds(base, size);
    const auto lo = static_cast<std::int64_t>(rng.nextBounded(9)) - 4;
    const auto hi = static_cast<std::int64_t>(rng.nextBounded(9)) - 4;
    const auto len = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(size) - lo + hi);
    cheri::Capability cap =
        root.setBounds(base + lo, static_cast<std::uint64_t>(len))
            .andPerms(cheri::permGlobal |
                      (rng.nextBounded(4) ? cheri::permLoad : 0u) |
                      (rng.nextBounded(4) ? cheri::permStore : 0u));
    if (rng.nextBounded(8) == 0)
        cap = cap.seal(root, 3);
    if (rng.nextBounded(8) == 0)
        cap = cap.cleared();
    return cap;
}

Setup
randomSetup(Rng &rng)
{
    Setup setup;
    setup.spec.name = "fuzz";
    setup.spec.timing.ilp = 1 + static_cast<std::uint32_t>(
                                    rng.nextBounded(8));
    Addr next = 0x100;
    const unsigned count = 1 + static_cast<unsigned>(rng.nextBounded(4));
    for (unsigned i = 0; i < count; ++i) {
        const std::uint64_t size = 1 + rng.nextBounded(96);
        setup.spec.buffers.push_back(
            {"b" + std::to_string(i), size,
             workloads::BufferAccess::readWrite,
             rng.nextBounded(2) ? workloads::BufferPlacement::external
                                : workloads::BufferPlacement::streamed});
        setup.buffers.push_back({next, size, randomCap(rng, next, size)});
        next = roundUp(next + size + rng.nextBounded(48), 16);
    }
    return setup;
}

template <typename F>
std::string
attempt(F &&op)
{
    try {
        op();
        return "";
    } catch (const SimError &e) {
        return e.what();
    }
}

/**
 * Drive @p ref and @p fast with one random stream of @p len ops.
 * @p drain reads whatever counters the envelopes have (draining their
 * logs) and compares them. @return the first mismatch, or "".
 */
template <typename Ref, typename Fast, typename Drain>
std::string
runStream(Rng &rng, const Setup &setup, Ref &ref, Fast &fast,
          std::uint64_t len, Drain &&drain)
{
    const auto nbuf = static_cast<ObjectId>(setup.buffers.size());
    auto pick = [&]() -> ObjectId {
        // One access in 32 names an object that does not exist.
        return static_cast<ObjectId>(
            rng.nextBounded(32) ? rng.nextBounded(nbuf) : nbuf);
    };
    auto sizeOf = [&](ObjectId obj) {
        return obj < nbuf ? setup.buffers[obj].size : 8;
    };

    for (std::uint64_t i = 0; i < len; ++i) {
        const std::uint64_t dice = rng.nextBounded(100);
        const std::string where = "op " + std::to_string(i) + ": ";
        if (dice < 70) {
            const ObjectId obj = pick();
            const std::uint64_t off = rng.nextBounded(sizeOf(obj) + 4);
            const auto size =
                1 + static_cast<std::uint32_t>(rng.nextBounded(16));
            std::uint8_t a[16] = {};
            std::uint8_t b[16] = {};
            std::string ra, rb;
            if (dice < 40) {
                ra = attempt([&] { ref.load(obj, off, a, size); });
                rb = attempt([&] { fast.load(obj, off, b, size); });
            } else {
                for (std::uint32_t k = 0; k < size; ++k)
                    a[k] = b[k] = static_cast<std::uint8_t>(rng.next());
                ra = attempt([&] { ref.store(obj, off, a, size); });
                rb = attempt([&] { fast.store(obj, off, b, size); });
            }
            if (ra != rb)
                return where + "ref '" + ra + "' vs batched '" + rb + "'";
            if (std::memcmp(a, b, size) != 0)
                return where + "loaded bytes differ";
        } else if (dice < 85) {
            const std::uint64_t n = rng.nextBounded(40);
            if (dice < 78) {
                ref.computeInt(n);
                fast.computeInt(n);
            } else {
                ref.computeFp(n);
                fast.computeFp(n);
            }
        } else if (dice < 90) {
            ref.barrier();
            fast.barrier();
        } else if (dice < 95) {
            const ObjectId dst = pick();
            const ObjectId src = pick();
            const std::uint64_t cap =
                std::min(sizeOf(dst), sizeOf(src)) + 2;
            const std::uint64_t n = rng.nextBounded(cap + 1);
            const std::uint64_t doff = rng.nextBounded(cap + 1 - n);
            const std::uint64_t soff = rng.nextBounded(cap + 1 - n);
            const std::string ra =
                attempt([&] { ref.copy(dst, doff, src, soff, n); });
            const std::string rb =
                attempt([&] { fast.copy(dst, doff, src, soff, n); });
            if (ra != rb)
                return where + "copy: ref '" + ra + "' vs batched '" + rb +
                       "'";
        } else {
            const std::string mismatch = drain();
            if (!mismatch.empty())
                return where + mismatch;
        }
    }
    return drain();
}

/** Memory bytes and every granule tag must match. */
std::string
compareMemory(const TaggedMemory &ref, const TaggedMemory &fast)
{
    for (Addr a = 0; a < memBytes; a += TaggedMemory::capGranule) {
        if (ref.tagAt(a) != fast.tagAt(a))
            return "tag of granule " + std::to_string(a / 16) + " differs";
        if (ref.readValue<std::uint64_t>(a) !=
                fast.readValue<std::uint64_t>(a) ||
            ref.readValue<std::uint64_t>(a + 8) !=
                fast.readValue<std::uint64_t>(a + 8))
            return "bytes of granule " + std::to_string(a / 16) +
                   " differ";
    }
    return "";
}

std::string
fuzzOne(Rng &rng)
{
    const Setup setup = randomSetup(rng);
    TaggedMemory ref_mem(memBytes);
    TaggedMemory fast_mem(memBytes);
    for (Addr a = 0; a < memBytes; a += 8) {
        const std::uint64_t v = rng.next();
        ref_mem.writeValue(a, v);
        fast_mem.writeValue(a, v);
    }
    for (Addr a = 0; a < memBytes; a += TaggedMemory::capGranule) {
        if (rng.nextBounded(4) == 0) {
            const cheri::Capability cap =
                cheri::Capability::root().setBounds(a, 16);
            ref_mem.writeCap(a, cap);
            fast_mem.writeCap(a, cap);
        }
    }

    // Up to three logs' worth of ops, so streams cross the capacity.
    const std::uint64_t len = rng.nextBounded(
        3 * workloads::MemoryAccessor::logCapacity + 1);
    const unsigned envelope = static_cast<unsigned>(rng.nextBounded(3));
    std::string mismatch;
    if (envelope < 2) {
        const bool cheri = envelope == 1;
        test::RefCpuAccessor ref(ref_mem, setup.buffers, cheri);
        CpuAccessor fast(fast_mem, setup.buffers, cheri);
        mismatch = runStream(rng, setup, ref, fast, len, [&]() {
            if (ref.cycles() != fast.cycles() ||
                ref.loads() != fast.loads() ||
                ref.stores() != fast.stores() ||
                ref.cacheMisses() != fast.cacheMisses())
                return std::string("cpu counters differ");
            return std::string();
        });
    } else {
        test::RefTraceAccessor ref(ref_mem, setup.spec, setup.buffers);
        accel::TraceAccessor fast(fast_mem, setup.spec, setup.buffers);
        mismatch = runStream(rng, setup, ref, fast, len,
                             [] { return std::string(); });
        if (mismatch.empty()) {
            const accel::InstanceTrace a = ref.take();
            const accel::InstanceTrace b = fast.take();
            if (a.size() != b.size())
                return "trace lengths differ";
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (!(a.at(i) == b.at(i)))
                    return "trace op " + std::to_string(i) + " differs";
            }
        }
    }
    if (!mismatch.empty())
        return mismatch;
    return compareMemory(ref_mem, fast_mem);
}

TEST(EnvelopeFuzz, BatchedMatchesPerAccessEnvelopes)
{
    Rng rng(fuzz::seed() ^ 0xe7e1);
    // One stream per 50 iterations: each runs up to 768 ops per side.
    const std::uint64_t streams =
        std::max<std::uint64_t>(1, fuzz::iterations() / 50);
    ::testing::internal::CaptureStderr(); // refusals log their panics
    for (std::uint64_t s = 0; s < streams; ++s) {
        const std::string mismatch = fuzzOne(rng);
        if (!mismatch.empty()) {
            ::testing::internal::GetCapturedStderr();
            FAIL() << "stream " << s << ": " << mismatch;
        }
    }
    ::testing::internal::GetCapturedStderr();
}

} // namespace
} // namespace capcheck

/**
 * @file
 * Scalar in-order CPU cost model (Flute-class softcore). The CPU is the
 * only bus master while it runs a kernel, so its cycle count is an
 * analytic function of the access/op stream — no event simulation
 * needed. With CHERI enabled the model additionally
 *  - performs a full capability check on every access (the functional
 *    guarantee of a CHERI CPU),
 *  - charges a tag-fetch penalty on a fraction of cache misses, and
 *  - runs bulk copies at capability width (16 B) instead of 8 B, which
 *    is why gemm_blocked runs *faster* under CHERI (Fig. 10(g)).
 */

#ifndef CAPCHECK_CPU_CPU_MODEL_HH
#define CAPCHECK_CPU_CPU_MODEL_HH

#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "cheri/capability.hh"
#include "cpu/cache_model.hh"
#include "mem/tagged_memory.hh"
#include "workloads/accessor.hh"
#include "workloads/buffer_spec.hh"

namespace capcheck
{

/** Per-operation cycle costs of the scalar core. */
struct CpuCostParams
{
    Cycles intOp = 1;
    Cycles fpOp = 15;        ///< non-pipelined scalar FPU
    Cycles loadHit = 1;
    Cycles storeHit = 1;
    Cycles missPenalty = 30; ///< DRAM round trip
    Cycles copyPerWord = 3;  ///< load+store of one copy word
    /** CHERI: extra tag-fetch cycles charged every N-th miss. */
    unsigned cheriTagMissInterval = 2;
    /** CHERI: capability derivation cost per buffer at task setup. */
    Cycles cheriCapSetup = 12;

    bool operator==(const CpuCostParams &) const = default;
};

/** A buffer's location in shared memory. */
struct BufferMapping
{
    Addr base = 0;
    std::uint64_t size = 0;
    cheri::Capability cap; ///< CPU-held capability for the buffer

    bool operator==(const BufferMapping &) const = default;
};

/**
 * MemoryAccessor envelope that executes a kernel functionally against
 * TaggedMemory while accumulating CPU cycles. Each buffer's windows
 * are the buffer itself, intersected under CHERI with what its
 * capability authorizes for that kind of access (tag, seal,
 * permissions, bounds), so the inline range check gives the verdict
 * Capability::checkAccess would. The cache model, counters and tag
 * clears run when the access log drains.
 */
class CpuAccessor : public workloads::MemoryAccessor
{
  public:
    /**
     * @param cheri_enabled model a CHERI CPU (ccpu) vs plain RISC-V.
     */
    CpuAccessor(TaggedMemory &mem, std::vector<BufferMapping> buffers,
                bool cheri_enabled,
                const CpuCostParams &params = CpuCostParams{});
    ~CpuAccessor() override;

    void copy(ObjectId dst_obj, std::uint64_t dst_off, ObjectId src_obj,
              std::uint64_t src_off, std::uint64_t len) override;

    /** Charge task-entry costs (capability setup under CHERI). */
    void chargeTaskSetup();

    /** @{ Counters; reading one drains the access log first. */
    Cycles cycles() { drain(); return _cycles; }
    std::uint64_t loads() { drain(); return _loads; }
    std::uint64_t stores() { drain(); return _stores; }
    std::uint64_t cacheMisses() { drain(); return cache.misses(); }
    /** @} */
    bool cheriEnabled() const { return cheri; }
    const CpuCostParams &costParams() const { return params; }

    /** Flush the cache (between sequential tasks on the same core). */
    void flushCache() { drain(); cache.flush(); }

  private:
    void consume(const Event *events, std::size_t n) override;
    void unwindowed(Event::Kind kind, ObjectId obj, std::uint64_t off,
                    void *dst, const void *src,
                    std::uint32_t size) override;

    Addr resolve(ObjectId obj, std::uint64_t off, std::uint32_t size,
                 bool is_store);
    void chargeAccess(Addr addr, bool is_store);

    TaggedMemory &mem;
    std::vector<BufferMapping> buffers;
    bool cheri;
    CpuCostParams params;
    CacheModel cache;

    Cycles _cycles = 0;
    std::uint64_t _loads = 0;
    std::uint64_t _stores = 0;
    /** Misses left until the next CHERI tag-fetch charge (0: never). */
    unsigned tagFetchCountdown;
};

} // namespace capcheck

#endif // CAPCHECK_CPU_CPU_MODEL_HH

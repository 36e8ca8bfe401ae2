/**
 * @file
 * The trusted software driver of Fig. 6. It owns the allocation /
 * execution / deallocation flow for accelerator tasks: claiming a
 * functional unit, allocating data buffers from shared memory, deriving
 * per-buffer CHERI capabilities on the CPU (recorded in the capability
 * tree), installing them into the CapChecker over the capability MMIO,
 * programming the accelerator's control registers, and on completion
 * evicting capabilities, scrubbing buffers after an exception, and
 * releasing the functional unit.
 *
 * The same driver drives the comparison baselines: with an IOMMU it
 * maps buffer pages; with an IOPMP it programs regions; with no
 * protection it only sets pointers.
 */

#ifndef CAPCHECK_DRIVER_DRIVER_HH
#define CAPCHECK_DRIVER_DRIVER_HH

#include <optional>
#include <vector>

#include "accel/accelerator.hh"
#include "base/probe.hh"
#include "capchecker/capchecker.hh"
#include "capchecker/mmio.hh"
#include "cheri/captree.hh"
#include "cpu/cpu_model.hh" // BufferMapping
#include "mem/allocator.hh"
#include "mem/tagged_memory.hh"
#include "protect/iommu.hh"
#include "protect/iopmp.hh"

namespace capcheck::driver
{

/** Cycle costs of driver actions not covered by the MMIO model. */
struct DriverCostParams
{
    Cycles mallocCall = 40;       ///< allocator bookkeeping on the CPU
    Cycles freeCall = 20;
    Cycles controlRegWrite = 3;   ///< one MMIO write to the accelerator
    Cycles capDerive = 12;        ///< CSetBounds+CAndPerm on a CHERI CPU
    Cycles pointerSetup = 2;      ///< plain pointer arithmetic otherwise
    Cycles iommuMapPerPage = 25;  ///< page-table entry + bookkeeping
    Cycles iommuUnmapPerPage = 15;
    Cycles iopmpRegionSetup = 8;
    Cycles scrubPerWord = 1;      ///< clearing leaked data on exception
};

/** Payload of the capability-install probe (one per buffer). */
struct CapInstallEvent
{
    TaskId task;
    ObjectId object;
    Addr base;
    std::uint64_t size;
    /** Driver cycles consumed so far on this allocation. */
    Cycles driverCycles;
};

/** Payload of the capability-revoke probe (one per task teardown). */
struct CapRevokeEvent
{
    TaskId task;
    unsigned buffers;
    bool hadException;
    /** Driver cycles the teardown consumed. */
    Cycles driverCycles;
};

/** A live accelerator task, as the driver tracks it. */
struct TaskHandle
{
    TaskId task = invalidTaskId;
    accel::Accelerator *accel = nullptr;
    unsigned instance = 0;
    std::vector<BufferMapping> buffers;
    /** Accelerator-visible base addresses (Coarse mode folds obj ids). */
    std::vector<Addr> accelBases;
    cheri::CapNodeId taskNode = cheri::invalidCapNode;
    std::vector<cheri::CapNodeId> bufferNodes;
    Cycles allocCycles = 0;
};

class Driver
{
  public:
    /**
     * @param cheri_cpu whether capabilities are derived (ccpu configs).
     * @param checker CapChecker to program, or nullptr.
     * @param iommu IOMMU to map, or nullptr.
     * @param iopmp IOPMP to program, or nullptr.
     */
    Driver(TaggedMemory &mem, RegionAllocator &heap,
           cheri::CapTree &tree, bool cheri_cpu,
           capchecker::CapChecker *checker = nullptr,
           protect::Iommu *iommu = nullptr,
           protect::Iopmp *iopmp = nullptr,
           const DriverCostParams &costs = DriverCostParams{});

    /**
     * Fig. 6 (1): allocate an accelerator task.
     * @param cpu_task_node the requesting CPU task in the capability
     *        tree (its authority bounds the buffer capabilities).
     * @return the handle, or nullopt when no functional unit is free
     *         or memory/table space is exhausted.
     */
    std::optional<TaskHandle> allocateTask(accel::Accelerator &accel,
                                           TaskId task,
                                           cheri::CapNodeId cpu_task_node);

    /**
     * Fig. 6 (2): deallocate. With @p had_exception the buffers are
     * scrubbed before the memory is returned.
     * @return driver cycles consumed.
     */
    Cycles deallocateTask(TaskHandle &handle, bool had_exception);

    /** @{ Probe points for capability lifecycle observation. */
    probe::ProbePoint<CapInstallEvent> &installProbe()
    {
        return _installProbe;
    }
    probe::ProbePoint<CapRevokeEvent> &revokeProbe()
    {
        return _revokeProbe;
    }
    /** @} */

  private:
    std::uint32_t permsFor(workloads::BufferAccess access) const;

    TaggedMemory &mem;
    RegionAllocator &heap;
    cheri::CapTree &tree;
    bool cheriCpu;
    capchecker::CapChecker *checker;
    std::optional<capchecker::CapCheckerMmio> mmio;
    protect::Iommu *iommu;
    protect::Iopmp *iopmp;
    DriverCostParams params;

    probe::ProbePoint<CapInstallEvent> _installProbe{
        "driver.capInstall"};
    probe::ProbePoint<CapRevokeEvent> _revokeProbe{"driver.capRevoke"};
};

} // namespace capcheck::driver

#endif // CAPCHECK_DRIVER_DRIVER_HH

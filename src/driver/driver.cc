#include "driver/driver.hh"

#include "base/logging.hh"
#include "base/trace.hh"

namespace capcheck::driver
{

Driver::Driver(TaggedMemory &mem, RegionAllocator &heap,
               cheri::CapTree &tree, bool cheri_cpu,
               capchecker::CapChecker *checker, protect::Iommu *iommu,
               protect::Iopmp *iopmp, const DriverCostParams &costs)
    : mem(mem), heap(heap), tree(tree), cheriCpu(cheri_cpu),
      checker(checker), iommu(iommu), iopmp(iopmp), params(costs)
{
    if (checker)
        mmio.emplace(*checker);
    if (checker && !cheri_cpu)
        fatal("a CapChecker requires a CHERI CPU to source capabilities");
}

std::uint32_t
Driver::permsFor(workloads::BufferAccess access) const
{
    switch (access) {
      case workloads::BufferAccess::readOnly:
        return cheri::permDataRO;
      case workloads::BufferAccess::writeOnly:
        return cheri::permDataWO;
      case workloads::BufferAccess::readWrite:
        return cheri::permDataRW;
    }
    return 0;
}

std::optional<TaskHandle>
Driver::allocateTask(accel::Accelerator &accel, TaskId task,
                     cheri::CapNodeId cpu_task_node)
{
    Cycles cycles = 0;

    // Step 1: find a free suitable functional unit.
    const auto instance = accel.claimInstance(task);
    cycles += 4 + accel.numInstances(); // FU scan
    if (!instance)
        return std::nullopt;

    TaskHandle handle;
    handle.task = task;
    handle.accel = &accel;
    handle.instance = *instance;

    // The accelerator task is a child of the requesting CPU task in
    // the capability tree (Fig. 4). Copy the authority: growing the
    // tree below invalidates references into it.
    const cheri::Capability authority = tree.capOf(cpu_task_node);
    if (cheriCpu) {
        handle.taskNode =
            tree.derive(cpu_task_node, cheri::CapNodeKind::accelTask,
                        authority.andPerms(cheri::permDataRW),
                        accel.name() + "#" + std::to_string(task));
        cycles += params.capDerive;
    }

    // Step 2: allocate buffers and derive their capabilities.
    const workloads::KernelSpec &spec = accel.spec();
    accel::Accelerator::InstanceRegs &regs = accel.regs(*instance);

    for (ObjectId obj = 0; obj < spec.buffers.size(); ++obj) {
        const workloads::BufferDef &def = spec.buffers[obj];
        const auto base = heap.allocate(def.size);
        cycles += params.mallocCall;
        if (!base) {
            // Roll back partial allocation.
            for (const BufferMapping &buf : handle.buffers)
                heap.free(buf.base);
            accel.releaseInstance(*instance);
            if (mmio)
                mmio->resetCycles();
            return std::nullopt;
        }

        BufferMapping mapping;
        mapping.base = *base;
        mapping.size = def.size;

        if (cheriCpu) {
            mapping.cap = authority.setBounds(*base, def.size)
                              .andPerms(permsFor(def.access));
            if (!mapping.cap.tag())
                panic("driver: buffer capability not representable");
            handle.bufferNodes.push_back(
                tree.derive(handle.taskNode, cheri::CapNodeKind::buffer,
                            mapping.cap, def.name));
            cycles += params.capDerive;
        } else {
            cycles += params.pointerSetup;
        }

        // Install protection state.
        if (checker) {
            if (!mmio->installSequence(task, obj, mapping.cap)) {
                // Capability table full: the driver would stall; the
                // caller handles this by deallocating another task.
                for (const BufferMapping &buf : handle.buffers)
                    heap.free(buf.base);
                heap.free(*base);
                checker->evictTask(task);
                if (cheriCpu) {
                    for (auto node : handle.bufferNodes)
                        tree.remove(node);
                    tree.remove(handle.taskNode);
                }
                accel.releaseInstance(*instance);
                mmio->resetCycles();
                return std::nullopt;
            }
        }
        if (iommu) {
            const unsigned pages =
                iommu->mapRange(task, *base, def.size,
                                def.access !=
                                    workloads::BufferAccess::readOnly);
            cycles += pages * params.iommuMapPerPage;
        }
        if (iopmp) {
            protect::Iopmp::Region region;
            region.task = task;
            region.base = *base;
            region.size = def.size;
            region.allowRead =
                def.access != workloads::BufferAccess::writeOnly;
            region.allowWrite =
                def.access != workloads::BufferAccess::readOnly;
            iopmp->addRegion(region);
            cycles += params.iopmpRegionSetup;
        }

        // Program the instance's base-pointer control register
        // (inst.add_ptr() in Fig. 6), folding the object id into the
        // address in Coarse mode.
        const Addr accel_base =
            checker ? checker->accelAddress(obj, *base) : *base;
        regs.objBase[obj] = accel_base;
        handle.accelBases.push_back(accel_base);
        cycles += params.controlRegWrite;

        _installProbe.notify(
            CapInstallEvent{task, obj, *base, def.size, cycles});
        handle.buffers.push_back(mapping);
    }

    // Start strobe.
    regs.started = true;
    cycles += params.controlRegWrite;

    CAPCHECK_DPRINTF(debug::driver,
                     "alloc task %u on %s#%u: %zu buffers, %llu cycles",
                     task, accel.name().c_str(), *instance,
                     handle.buffers.size(),
                     static_cast<unsigned long long>(cycles +
                                                     (mmio ? mmio->cyclesUsed()
                                                           : 0)));

    if (mmio) {
        cycles += mmio->cyclesUsed();
        mmio->resetCycles();
    }
    handle.allocCycles = cycles;
    return handle;
}

Cycles
Driver::deallocateTask(TaskHandle &handle, bool had_exception)
{
    Cycles cycles = 0;

    // Evict capabilities first so no further DMA can be granted.
    if (checker) {
        mmio->evictSequence(handle.task);
        cycles += mmio->cyclesUsed() +
                  checker->evictCycles() * handle.buffers.size();
        mmio->resetCycles();
    }
    if (iommu) {
        std::uint64_t pages = 0;
        for (const BufferMapping &buf : handle.buffers)
            pages += (buf.size + protect::Iommu::pageSize - 1) /
                     protect::Iommu::pageSize;
        iommu->unmapTask(handle.task);
        cycles += pages * params.iommuUnmapPerPage;
    }
    if (iopmp)
        iopmp->removeTaskRegions(handle.task);

    // On an exception all buffer data is cleared before release
    // (Fig. 6 (2)) so nothing leaks to the next allocation.
    for (const BufferMapping &buf : handle.buffers) {
        if (had_exception) {
            mem.scrub(buf.base, buf.size);
            cycles += (buf.size / 8) * params.scrubPerWord;
        }
        heap.free(buf.base);
        cycles += params.freeCall;
    }

    // Drop the capability-tree nodes (revocation).
    if (cheriCpu) {
        for (const cheri::CapNodeId node : handle.bufferNodes)
            tree.remove(node);
        tree.remove(handle.taskNode);
    }

    // Release the functional unit; control registers are cleared.
    handle.accel->releaseInstance(handle.instance);
    cycles += params.controlRegWrite;

    CAPCHECK_DPRINTF(debug::driver, "dealloc task %u%s", handle.task,
                     had_exception ? " (exception: buffers scrubbed)"
                                   : "");
    _revokeProbe.notify(CapRevokeEvent{
        handle.task, static_cast<unsigned>(handle.buffers.size()),
        had_exception, cycles});
    handle.buffers.clear();
    handle.bufferNodes.clear();
    return cycles;
}

} // namespace capcheck::driver

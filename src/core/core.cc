#include "core/core.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "common/bitutil.hh"
#include "isa/opclass.hh"
#include "sim/checkpoint.hh"

namespace rbsim
{

OooCore::OooCore(const MachineConfig &cfg, const Program &prog,
                 const ArchCheckpoint *from)
    : config(checkConfig(cfg)), program(prog),
      hierarchy(cfg),
      fetch(cfg, prog, hierarchy),
      rename(cfg.physRegs),
      regs(cfg.physRegs),
      scoreboard(cfg.physRegs),
      rob(cfg.robEntries),
      sched(cfg.numSchedulers, cfg.schedEntries, cfg.selectWidth,
            cfg.robEntries),
      // The LSQ's seq window (oldest-to-youngest in-flight span) is
      // bounded by the ROB capacity: the ROB is dense in seq, so no two
      // live instructions are more than robEntries seqs apart.
      lsq(cfg.lsqEntries, cfg.robEntries),
      samDl1(cfg.dl1.sizeBytes / (cfg.dl1.assoc * cfg.dl1.lineBytes),
             cfg.dl1.lineBytes),
      producerSched(cfg.physRegs, 0xff),
      regWaiterHead(cfg.physRegs, -1),
      slotPendingOps(rob.slotCount(), 0)
{
    if (from && from->pc >= prog.code.size())
        throw std::logic_error("cannot resume a halted checkpoint");
    frontPipeCap =
        cfg.fetchWidth * (cfg.fetchDecodeDepth + cfg.renameDepth + 4);
    frontPipe.init(frontPipeCap);
    frontSnaps.init(frontPipeCap);
    robSnaps.resize(rob.slotCount());
    fetchBuf.reserve(cfg.fetchWidth);
    pendingFlushes.reserve(cfg.robEntries);

    // Waiter pool: at most one node per (scheduler entry, source operand)
    // is ever live (dead nodes are reclaimed on broadcast and on flush).
    // Every scheduler entry is also in the ROB, so the ROB bounds the
    // live entries as well as the schedulers' total capacity does.
    const std::size_t slot_count = std::min<std::size_t>(
        static_cast<std::size_t>(cfg.numSchedulers) * cfg.schedEntries,
        cfg.robEntries);
    waiterPool.resize(slot_count * 3 /* max sources per instruction */);
    for (std::size_t i = 0; i < waiterPool.size(); ++i) {
        waiterPool[i].next = i + 1 < waiterPool.size()
                                 ? static_cast<std::int32_t>(i + 1)
                                 : -1;
    }
    waiterFree = waiterPool.empty() ? -1 : 0;

    // Pre-size the wakeup heap's backing store so steady-state event
    // churn stays off the heap (a slot arms at most a handful of
    // transition events; stale events drain time-bounded).
    {
        std::vector<WakeupEvent> storage;
        storage.reserve(slot_count * 8);
        wakeupEvents = decltype(wakeupEvents)(EventLater{},
                                              std::move(storage));
    }

    commitMem.restorePages(from ? from->pages : prog.image);
    if (!from)
        return;
    // The rename map is the identity, so the architectural registers
    // land in their home physical registers.
    for (unsigned r = 0; r < numArchRegs; ++r) {
        if (r != zeroReg)
            regs.writeTc(rename.lookup(r), from->regs[r]);
    }
    fetch.startAt(from->pc);
    fetch.predictor.restoreState(from->bpred);
    fetch.btb.restoreEntries(from->btb);
    fetch.ras.restore(from->ras);
    hierarchy.il1().restoreTags(from->il1);
    hierarchy.dl1().restoreTags(from->dl1);
    hierarchy.l2().restoreTags(from->l2);
}

bool
OooCore::run(Cycle max_cycles, std::uint64_t max_insts)
{
    // Budgets past the end of the counters' range saturate to "none"
    // (a served request may carry any u64 maxCycles).
    const Cycle end =
        max_cycles > neverCycle - now ? neverCycle : now + max_cycles;
    const std::uint64_t retired = coreStats.retired;
    instLimit = max_insts == 0 ? 0
                : max_insts > ~std::uint64_t{0} - retired
                    ? ~std::uint64_t{0}
                    : retired + max_insts;
    limitHit = false;
    Cycle last_progress = now;
    std::uint64_t last_retired = retired;
    while (!haltRetired && !limitHit && now < end) {
        cycle();
        if (coreStats.retired != last_retired) {
            last_retired = coreStats.retired;
            last_progress = now;
        }
        if (now - last_progress >= config.deadlockCycles) {
            // No retirement progress for an entire watchdog window: a
            // genuine model deadlock. Diagnose and abort the run instead
            // of spinning until max_cycles (the assert that used to live
            // here vanished in -DNDEBUG builds).
            ++coreStats.deadlockAborts;
            diagnoseDeadlock();
            if (tracer)
                traceInFlight("watchdog-deadlock");
            return false;
        }
        // A program that runs off the end of its code without HALT drains
        // and stops.
        if (fetch.parked() && frontPipe.empty() && rob.empty() &&
            pendingFlushes.empty()) {
            haltRetired = true;
        } else if (!config.wakeupOracle) {
            // Oracle mode steps every cycle, so comparing its snapshot
            // with a plain run's also checks the idle skip.
            maybeSkipIdle(end, last_progress);
        }
    }
    return haltRetired;
}

void
OooCore::traceInFlight(const char *why)
{
    if (!tracer || rob.empty())
        return;
    const std::uint64_t head = rob.head().seq;
    for (std::size_t i = 0, n = rob.size(); i < n; ++i)
        tracer->onAbort(rob.get(head + i), now, why);
}

void
OooCore::diagnoseDeadlock() const
{
    std::fprintf(stderr,
                 "rbsim: core deadlock: no retirement progress for %llu "
                 "cycles (cycle=%llu retired=%llu rob=%zu sched=%zu "
                 "lsq=%zu frontPipe=%zu flushes=%zu fetchParked=%d)\n",
                 static_cast<unsigned long long>(config.deadlockCycles),
                 static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(coreStats.retired),
                 rob.size(), sched.occupancy(), lsq.size(),
                 frontPipe.size(), pendingFlushes.size(),
                 static_cast<int>(fetch.parked()));
}

void
OooCore::maybeSkipIdle(Cycle end, Cycle last_progress)
{
    // Anything latched for this cycle's select means work now.
    if (sched.anyReady() || sched.anyAttention())
        return;

    Cycle target = neverCycle;

    for (const PendingFlush &f : pendingFlushes)
        target = std::min(target, f.at);

    if (!rob.empty()) {
        const RobEntry &h = rob.head();
        // !complete == !issued here (completion is timestamped at
        // issue), so an incomplete head is covered by the select/event
        // bounds below.
        if (h.complete) {
            if (h.completeCycle <= now)
                return; // retirement due this cycle
            target = std::min(target, h.completeCycle);
        }
    }

    if (!wakeupEvents.empty()) {
        if (wakeupEvents.top().at <= now)
            return;
        target = std::min(target, wakeupEvents.top().at);
    }

    if (!frontPipe.empty()) {
        const FrontEntry &fe = frontPipe.front();
        const Cycle mature = fe.fetchedAt + config.fetchDecodeDepth +
                             config.renameDepth;
        if (mature > now) {
            target = std::min(target, mature);
        } else {
            // A mature head may only be skipped past when provably
            // blocked by a resource that frees via retire, issue, or
            // flush — all already bounded above.
            const Inst &inst = fe.fi.inst;
            const bool is_mem = isLoad(inst.op) || isStore(inst.op);
            const bool blocked =
                !rob.hasSpace() || (is_mem && !lsq.hasSpace()) ||
                pickScheduler(inst, /*commit=*/false) >=
                    config.numSchedulers ||
                (writesDest(inst) && !rename.hasFree());
            if (!blocked)
                return;
        }
    }

    if (!fetch.parked() &&
        frontPipe.size() + config.fetchWidth <= frontPipeCap) {
        // Fetch is live and not backpressured: inert only while stalled
        // on an instruction-cache fill (the miss cost was charged when
        // the miss was discovered, so skipped stall cycles are
        // stat-exact).
        const Cycle resume = fetch.resumeAt();
        if (resume <= now)
            return;
        target = std::min(target, resume);
    }

    // A target of neverCycle with in-flight state means a genuine
    // deadlock: fast-forward straight into the watchdog window. Either
    // way, never overrun the watchdog or the end of the run's cycle
    // budget, so aborted and budget-capped runs report the same cycle
    // counts as a cycle-by-cycle (oracle-mode) simulation.
    target = std::min(target, last_progress + config.deadlockCycles - 1);
    target = std::min(target, end);
    if (target <= now)
        return;

    const Cycle n = target - now;
    now += n;
    coreStats.cycles += n;
    coreStats.retireSlots.record(0, n);
    coreStats.fetchSlots.record(0, n);
    idleSkipped += n;
}

void
OooCore::cycle()
{
    // Each stage under a wall-clock timer, inert without a profiler.
    // Exec/Kernel/Lsq/Cosim are timed at their call sites (subsets of
    // Select and Commit; see common/hostprof.hh).
    {
        StageTimer t(profiler, HostProfiler::Flush);
        doFlushes();
    }
    const std::uint64_t retired0 = coreStats.retired;
    {
        StageTimer t(profiler, HostProfiler::Commit);
        doRetire();
    }
    coreStats.retireSlots.record(coreStats.retired - retired0);
    {
        StageTimer t(profiler, HostProfiler::Select);
        doSelect();
    }
    {
        StageTimer t(profiler, HostProfiler::Dispatch);
        doDispatch();
    }
    const std::uint64_t fetched0 = coreStats.fetched;
    {
        StageTimer t(profiler, HostProfiler::Fetch);
        doFetch();
    }
    coreStats.fetchSlots.record(coreStats.fetched - fetched0);
    ++now;
    ++coreStats.cycles;
}

void
OooCore::writeStats(StatSnapshot &snap) const
{
    const CoreStats &s = coreStats;
    const StatGroup core(snap, "core");
    core.counter("cycles", s.cycles);
    core.counter("retired", s.retired);
    core.counter("fetched", s.fetched);
    core.counter("dispatched", s.dispatched);
    core.counter("issued", s.issued);
    core.counter("squashed", s.squashed);
    core.counter("condBranches", s.condBranches);
    core.counter("condMispredicts", s.condMispredicts);
    core.counter("flushes", s.flushes);
    core.counter("jmpFetchStalls", s.jmpFetchStalls);
    core.counter("loads", s.loads);
    core.counter("stores", s.stores);
    core.counter("loadForwards", s.loadForwards);
    core.counter("rbPathExecs", s.rbPathExecs);
    core.counter("rbBogusCorrections", s.rbBogusCorrections);
    core.counter("deadlockAborts", s.deadlockAborts);
    core.counter("withBypassedSource", s.withBypassedSource);
    core.counter("withAnySource", s.withAnySource);
    core.counter("issueWaitSum", s.issueWaitSum);
    core.counter("holeWaitCycles", s.holeWaitCycles);
    core.vector("table1", s.table1.data(), s.table1.size());
    const StatGroup bypass(snap, "bypass");
    bypass.vector("case", s.bypassCase.data(), s.bypassCase.size());
    bypass.vector("slot", s.bypassSlotUsed.data(), s.bypassSlotUsed.size());
    core.histogram("issueWait", s.issueWait);
    core.histogram("holeWait", s.holeWait);
    core.histogram("retireSlots", s.retireSlots);
    core.histogram("fetchSlots", s.fetchSlots);

    hierarchy.writeStats(snap);
    fetch.writeStats(snap);
    lsq.writeStats(StatGroup(snap, "lsq"));
}

// ---------------------------------------------------------------- flush

void
OooCore::doFlushes()
{
    // Fire the oldest due flush this cycle, if any.
    const PendingFlush *due = nullptr;
    for (const PendingFlush &f : pendingFlushes) {
        if (f.at <= now && (!due || f.seq < due->seq))
            due = &f;
    }
    if (!due)
        return;
    const PendingFlush fired = *due;

    assert(rob.contains(fired.seq));
    RobEntry &branch = rob.get(fired.seq);
    flushAfter(branch);

    // Drop this flush and any flush belonging to a squashed instruction.
    pendingFlushes.erase(
        std::remove_if(pendingFlushes.begin(), pendingFlushes.end(),
                       [&fired](const PendingFlush &f) {
                           return f.seq >= fired.seq;
                       }),
        pendingFlushes.end());

    fetch.redirect(fired.redirectPc, now);
    ++coreStats.flushes;
}

void
OooCore::flushAfter(const RobEntry &branch)
{
    // Squash younger instructions, youngest first (rename walk order).
    rob.squashAfter(branch.seq, [this, &branch](RobEntry &e) {
        if (tracer)
            tracer->onSquash(e, now, branch.seq, branch.pcIndex);
        if (e.dest != invalidPhysReg) {
            rename.undo(e.archDest, e.dest, e.prevDest);
            scoreboard.clear(e.dest);
        }
        ++coreStats.squashed;
    });
    sched.squashAfter(branch.seq);
    lsq.squashAfter(branch.seq);
    // Squashed consumers' waiter records are now dead (their slot
    // generation no longer matches); unlink them back onto the free list
    // so a hot mispredict loop cannot exhaust the pool. Stale heap
    // events are cheaper to drain lazily (generation-guarded,
    // time-bounded).
    for (std::int32_t &head : regWaiterHead) {
        std::int32_t *link = &head;
        while (*link != -1) {
            WaiterNode &n = waiterPool[*link];
            if (sched.live(n.ref, n.gen)) {
                link = &n.next;
            } else {
                const std::int32_t dead = *link;
                *link = n.next;
                n.next = waiterFree;
                waiterFree = dead;
            }
        }
    }
    coreStats.squashed += frontPipe.size();
    frontPipe.clear();
    frontSnaps.clear();

    // Repair the predictor to the state before this branch predicted,
    // then re-apply the architectural outcome.
    const BpSnapshot &snap = robSnaps[rob.slotOf(branch.seq)];
    fetch.predictor.restoreHistory(snap.globalHistory);
    fetch.ras.restore(snap);
    const Inst &inst = branch.inst;
    if (isCondBranch(inst.op)) {
        fetch.predictor.speculate(branch.pcIndex, branch.actualTaken);
    } else if (inst.op == Opcode::JMP) {
        if (inst.ra == zeroReg)
            fetch.ras.pop(); // the return consumed its RAS entry
        else
            fetch.ras.push(program.byteAddrOf(branch.pcIndex + 1));
    }

    // Sequence numbers of squashed instructions are recycled so the ROB
    // stays densely indexable.
    nextSeq = branch.seq + 1;
}

// --------------------------------------------------------------- retire

void
OooCore::doRetire()
{
    for (unsigned n = 0; n < config.retireWidth; ++n) {
        if (instLimit && coreStats.retired >= instLimit) {
            limitHit = true; // measurement-window boundary
            return;
        }
        if (rob.empty())
            return;
        RobEntry &e = rob.head();
        if (!e.complete || e.completeCycle > now)
            return;
        // A mispredicted branch must have had its flush fire before it
        // retires (the flush is scheduled at its resolution cycle, which
        // is <= its completion cycle).
        assert(!e.mispredicted ||
               std::none_of(pendingFlushes.begin(), pendingFlushes.end(),
                            [&e](const PendingFlush &f) {
                                return f.seq == e.seq;
                            }));

        if (e.isMemStore) {
            commitMem.write(e.effAddr, e.memSize == 8
                                ? e.storeData
                                : (e.storeData & 0xffffffffull),
                            e.memSize);
            hierarchy.dataWriteTouch(e.effAddr, now);
            lsq.retire(e.seq);
            ++coreStats.stores;
        } else if (e.isMemLoad) {
            lsq.retire(e.seq);
            ++coreStats.loads;
            if (e.loadForwarded)
                ++coreStats.loadForwards;
        }

        if (isCondBranch(e.inst.op)) {
            ++coreStats.condBranches;
            if (e.mispredicted)
                ++coreStats.condMispredicts;
            fetch.predictor.update(robSnaps[rob.slotOf(e.seq)].indices,
                                   e.actualTaken);
        } else if (e.inst.op == Opcode::JMP && e.inst.ra != zeroReg) {
            fetch.btb.update(e.pcIndex, e.actualNextPc);
        }

        // Retired-instruction tallies.
        ++coreStats.table1[static_cast<unsigned>(table1Row(e.inst.op))];
        if (e.numSrcs > 0)
            ++coreStats.withAnySource;
        if (e.anyBypassed)
            ++coreStats.withBypassedSource;
        if (e.bypassCaseIdx != 0xff)
            ++coreStats.bypassCase[e.bypassCaseIdx];
        if (e.bypassSlot != 0xff) {
            ++coreStats.bypassSlotUsed[std::min<unsigned>(
                e.bypassSlot, coreStats.bypassSlotUsed.size() - 1)];
        }
        if (e.usedRbPath)
            ++coreStats.rbPathExecs;
        if (e.bogusCorrected)
            ++coreStats.rbBogusCorrections;
        coreStats.issueWaitSum += e.issueCycle - e.dispatchCycle - 1;
        coreStats.issueWait.record(static_cast<std::size_t>(
            e.issueCycle - e.dispatchCycle - 1));
        coreStats.holeWait.record(e.holeWait);

        // Trace before the cosim hook so a mismatching instruction is
        // already in the ring buffer when the checker throws.
        if (tracer)
            tracer->onRetire(e, now);

        if (retireHook) {
            StageTimer timer(profiler, HostProfiler::Cosim);
            retireHook(e);
        }

        if (e.dest != invalidPhysReg)
            rename.release(e.prevDest);

        ++coreStats.retired;
        if (e.isHalt)
            haltRetired = true;
        rob.retireHead();
        if (haltRetired)
            return;
    }
}

// --------------------------------------------------------------- select

void
OooCore::publishStoreAddr(RobEntry &e)
{
    // Store address generation is decoupled from store data: once the
    // base register is ready, publish the address so younger loads can
    // disambiguate (and forward once the data arrives).
    const ProdAvail &bp =
        scoreboard.of(e.inst.rb == zeroReg ? PhysReg{0} : e.physB);
    const bool base_ready = e.inst.rb == zeroReg || bp.rfTc <= now ||
                            operandAvail(config, bp, false, e.cluster, now);
    if (!base_ready)
        return;
    const Word base = e.inst.rb == zeroReg ? 0 : regs.readTc(e.physB);
    const unsigned size = memAccessSize(e.inst.op);
    const Addr ea =
        (base + static_cast<Word>(static_cast<SWord>(e.inst.disp))) &
        ~Addr{size - 1};
    lsq.setAddress(e.seq, ea, size);
    e.storeAddrRecorded = true;
    e.effAddr = ea;
    e.memSize = size;
}

bool
OooCore::loadMayIssue(std::uint64_t seq, const RobEntry &e)
{
    StageTimer timer(profiler, HostProfiler::Lsq);
    // Loads additionally pass memory disambiguation: all older store
    // addresses known and no partial overlap (DESIGN.md).
    if (!lsq.olderStoreAddrsKnown(seq))
        return false;
    const Word base = e.inst.rb == zeroReg ? 0 : regs.readTc(e.physB);
    const unsigned size = memAccessSize(e.inst.op);
    const Addr ea =
        (base + static_cast<Word>(static_cast<SWord>(e.inst.disp))) &
        ~Addr{size - 1};
    return lsq.searchForLoad(seq, ea, size).mayIssue;
}

bool
OooCore::tryIssueWakeup(std::uint64_t seq)
{
    RobEntry &e = rob.get(seq);
    assert(now > e.dispatchCycle);
    // The ready bit already certifies every operand; loads still pass
    // memory disambiguation on every offer (the LSQ search counters
    // tick once per offer).
    if (e.isMemLoad && !loadMayIssue(seq, e))
        return false;
    issueInst(seq);
    return true;
}

void
OooCore::attendEntry(std::uint64_t seq, SchedulerBank::SlotRef ref)
{
    // Per-cycle side effects of scanning a non-ready entry. The hole bit
    // is the pure hole classification (holeClassPure; oracle mode checks
    // it every cycle), and a non-ready entry has a failing operand, so a
    // store still without an address only needs its base register
    // checked.
    RobEntry &e = rob.get(seq);
    assert(now > e.dispatchCycle);
    if (sched.isHole(ref)) {
        ++coreStats.holeWaitCycles;
        ++e.holeWait;
    }
    if (e.isMemStore && !e.storeAddrRecorded)
        publishStoreAddr(e);
    if (e.isMemStore && e.storeAddrRecorded)
        sched.setStoreScan(ref, false);
}

void
OooCore::doSelect()
{
    drainWakeupEvents();
    if (config.wakeupOracle)
        verifyWakeupOracle();
    // Scheduler entries are ROB entries: the walk from the ROB head's
    // slot is oldest-first.
    sched.selectWakeup(
        rob.headSequence(),
        [this](std::uint64_t seq, unsigned) { return tryIssueWakeup(seq); },
        [this](std::uint64_t seq, unsigned, SchedulerBank::SlotRef ref) {
            attendEntry(seq, ref);
        });
}

// ---------------------------------------------------------------- wakeup

void
OooCore::drainWakeupEvents()
{
    while (!wakeupEvents.empty() && wakeupEvents.top().at <= now) {
        const WakeupEvent ev = wakeupEvents.top();
        wakeupEvents.pop();
        // Stale events are filtered on (SlotRef, gen), never on the
        // slot's seq: squash recycles sequence numbers, so a slot
        // refilled in the same cycle can hold an identical seq and a
        // seq check (SchedulerBank::holds) would deliver the dead
        // occupant's event to the new one.
        if (!sched.live(ev.ref, ev.gen))
            continue; // issued, squashed, or slot reused
        sched.setReady(ev.ref, ev.ready);
        sched.setHole(ev.ref, ev.hole);
    }
}

void
OooCore::addWaiter(PhysReg r, SchedulerBank::SlotRef ref)
{
    assert(waiterFree != -1 && "waiter pool exhausted");
    const std::int32_t idx = waiterFree;
    WaiterNode &n = waiterPool[idx];
    waiterFree = n.next;
    n.ref = ref;
    n.gen = sched.genOf(ref);
    n.next = regWaiterHead[r];
    regWaiterHead[r] = idx;
}

void
OooCore::armDispatch(const RobEntry &e, SchedulerBank::SlotRef ref)
{
    std::uint8_t pending = 0;
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        if (scoreboard.of(e.src[i].reg).rfTc == neverCycle) {
            ++pending;
            addWaiter(e.src[i].reg, ref);
        }
    }
    slotPendingOps[ref.slot] = pending;
    // Stores want the oldest-first scan's attention until their address
    // reaches the LSQ, even while the data producer is still unknown.
    if (e.isMemStore && !e.storeAddrRecorded)
        sched.setStoreScan(ref, true);
    if (pending == 0)
        armWakeup(e, ref);
}

void
OooCore::produceAndWake(PhysReg r, const ProdAvail &p)
{
    scoreboard.produce(r, p);
    // Walk the register's waiter list, arming consumers whose last
    // unknown producer this is, and return every node to the free list.
    // List order is insertion-reversed, which is behavior-neutral: armed
    // wakeup events land on distinct slots (setReady/setHole commute)
    // and each slot arms exactly once.
    std::int32_t it = regWaiterHead[r];
    regWaiterHead[r] = -1;
    while (it != -1) {
        WaiterNode &w = waiterPool[it];
        const std::int32_t next = w.next;
        if (sched.live(w.ref, w.gen)) {
            assert(slotPendingOps[w.ref.slot] > 0);
            if (--slotPendingOps[w.ref.slot] == 0)
                armWakeup(rob.get(sched.seqAt(w.ref)), w.ref);
        }
        w.next = waiterFree;
        waiterFree = it;
        it = next;
    }
}

void
OooCore::armWakeup(const RobEntry &e, SchedulerBank::SlotRef ref)
{
    // Every producer timeline is now final: render the entry's whole
    // readiness future as ready/hole bit transitions. Before the last
    // producer's first availability (fmax) the entry is plain not-ready
    // (no bits); from fmax to the end of the last availability hole
    // (stable) not-ready means hole-blocked; from stable on it stays
    // ready until selected.
    const Cycle start = now + 1; // readiness needs now > dispatch
    Cycle fmax = 0;
    Cycle stable = 0;
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        const ProdAvail &p = scoreboard.of(e.src[i].reg);
        assert(p.rfTc != neverCycle);
        fmax = std::max(fmax, firstAvail(config, p, e.src[i].needsTc,
                                         e.cluster, p.early));
        stable = std::max(stable,
                          stableAvailFrom(config, p, e.src[i].needsTc,
                                          e.cluster));
    }
    const std::uint32_t gen = sched.genOf(ref);
    const Cycle base = std::max(start, fmax);
    if (base >= stable) {
        wakeupEvents.push(WakeupEvent{base, ref, gen, true, false});
        return;
    }
    auto all_avail = [&](Cycle t) {
        for (unsigned i = 0; i < e.numSrcs; ++i) {
            const ProdAvail &p = scoreboard.of(e.src[i].reg);
            if (!operandAvail(config, p, e.src[i].needsTc, e.cluster, t))
                return false;
        }
        return true;
    };
    bool prev_ready = false;
    bool first = true;
    for (Cycle t = base; t <= stable; ++t) {
        const bool r = all_avail(t);
        if (first || r != prev_ready) {
            // For t >= fmax, "blocked only by holes" is exactly
            // !ready: every failing operand has been available before.
            wakeupEvents.push(WakeupEvent{t, ref, gen, r, !r});
            first = false;
            prev_ready = r;
        }
    }
}

void
OooCore::verifyWakeupOracle()
{
    // Every latched bit against the predicate it caches: ready and hole
    // against the scoreboard, storeScan against the store's address
    // state. Together they make the select walk visit exactly the
    // entries that have a per-cycle effect.
    for (unsigned s = 0; s < sched.numSchedulers(); ++s) {
        sched.forEachEntry(s, [&](SchedulerBank::SlotRef ref,
                                  std::uint64_t seq) {
            const RobEntry &e = rob.get(seq);
            const bool ready_bit = sched.isReady(ref);
            const bool ready_pure = operandsReadyPure(e);
            const bool hole_bit = sched.isHole(ref);
            const bool hole_pure = holeClassPure(e);
            const bool scan_bit = sched.isStoreScan(ref);
            const bool scan_pure = e.isMemStore && !e.storeAddrRecorded;
            ++oracleChecks;
            if (ready_bit == ready_pure && hole_bit == hole_pure &&
                scan_bit == scan_pure)
                return;
            char msg[192];
            std::snprintf(msg, sizeof(msg),
                          "wakeup oracle mismatch: cycle=%llu seq=%llu "
                          "sched=%u slot=%u ready=%d/%d hole=%d/%d "
                          "storeScan=%d/%d",
                          static_cast<unsigned long long>(now),
                          static_cast<unsigned long long>(seq), s,
                          static_cast<unsigned>(ref.slot),
                          static_cast<int>(ready_bit),
                          static_cast<int>(ready_pure),
                          static_cast<int>(hole_bit),
                          static_cast<int>(hole_pure),
                          static_cast<int>(scan_bit),
                          static_cast<int>(scan_pure));
            throw WakeupOracleMismatch(msg);
        });
    }
}

bool
OooCore::operandsReadyPure(const RobEntry &e) const
{
    if (now <= e.dispatchCycle)
        return false;
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        const ProdAvail &p = scoreboard.of(e.src[i].reg);
        if (!operandAvail(config, p, e.src[i].needsTc, e.cluster, now))
            return false;
    }
    return true;
}

bool
OooCore::holeClassPure(const RobEntry &e) const
{
    if (now <= e.dispatchCycle)
        return false;
    bool failed = false;
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        const ProdAvail &p = scoreboard.of(e.src[i].reg);
        if (operandAvail(config, p, e.src[i].needsTc, e.cluster, now))
            continue;
        failed = true;
        if (p.rfTc == neverCycle ||
            now <= firstAvail(config, p, e.src[i].needsTc, e.cluster,
                              p.early)) {
            return false;
        }
    }
    return failed;
}

void
OooCore::recordBypassStats(RobEntry &e)
{
    if (e.numSrcs == 0)
        return;
    // Find the last-arriving source: the operand whose first availability
    // to this consumer is latest (the one that delayed execution).
    unsigned last = 0;
    Cycle last_first = 0;
    bool any_bypassed = false;
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        const ProdAvail &p = scoreboard.of(e.src[i].reg);
        const Cycle first =
            p.rfTc == 0 ? 0
                        : firstAvail(config, p, e.src[i].needsTc,
                                     e.cluster, p.early);
        if (first >= last_first) {
            last_first = first;
            last = i;
        }
        if (servedByBypass(p, now))
            any_bypassed = true;
    }
    e.anyBypassed = any_bypassed;
    const ProdAvail &lp = scoreboard.of(e.src[last].reg);
    if (servedByBypass(lp, now)) {
        e.bypassCaseIdx = static_cast<std::uint8_t>(
            classifyBypass(lp.dual, e.src[last].needsTc));
        const Cycle fmt_first = e.src[last].needsTc ? lp.late : lp.early;
        e.bypassSlot = static_cast<std::uint8_t>(
            std::min<Cycle>(now - std::min(now, fmt_first), 7));
    } else if (lp.rfTc != 0) {
        // Served by the register file after bypass windows passed.
        e.bypassSlot = static_cast<std::uint8_t>(
            std::min<Cycle>(now - std::min(now, lp.early), 7));
    }
}

void
OooCore::recordTraceBypass(RobEntry &e)
{
    // Per-source trace annotation: which delivery path feeds each
    // operand at this issue cycle — the register file, or bypass level
    // k (cycles past the operand's first availability in the consumed
    // format, 1-based), and in which number format it arrives.
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        const ProdAvail &p = scoreboard.of(e.src[i].reg);
        std::uint8_t v = 0; // register file
        if (servedByBypass(p, now)) {
            const bool needs_tc = e.src[i].needsTc;
            const Cycle fmt_first = needs_tc ? p.late : p.early;
            const Cycle level =
                now >= fmt_first ? now - fmt_first + 1 : 1;
            v = static_cast<std::uint8_t>(
                std::min<Cycle>(level, trace::srcLevelMask));
            if (p.dual && !needs_tc)
                v |= trace::srcRbForm;
        }
        e.srcBypass[i] = v;
    }
}

void
OooCore::issueInst(std::uint64_t seq)
{
    RobEntry &e = rob.get(seq);
    assert(!e.issued);
    e.issued = true;
    e.issueCycle = now;
    ++coreStats.issued;

    recordBypassStats(e);
    if (tracer)
        recordTraceBypass(e);

    ExecOut x;
    {
        StageTimer timer(profiler,
                         profiler && takesRbDatapath(config, e.inst.op)
                             ? HostProfiler::Kernel
                             : HostProfiler::Exec);
        x = executeInst(config, program, e, regs);
    }
    e.usedRbPath = x.usedRbPath;
    e.bogusCorrected = x.bogusCorrected;

    const OpClass cls = opClass(e.inst.op);
    const LatencyPair lat = config.latencyOf(cls);

    if (e.isMemLoad) {
        const unsigned size = memAccessSize(e.inst.op);
        e.effAddr = x.effAddr;
        e.memSize = size;
        LoadSearch search;
        {
            StageTimer timer(profiler, HostProfiler::Lsq);
            lsq.setAddress(seq, x.effAddr, size);
            search = lsq.searchForLoad(seq, x.effAddr, size);
        }
        assert(search.mayIssue);
        Cycle data_ready;
        Word value;
        if (search.forwarded) {
            // Store-to-load forwarding at cache-hit speed.
            data_ready = now + lat.early + config.dl1.latency;
            value = search.data;
            e.loadForwarded = true;
        } else {
            data_ready = hierarchy.dataRead(x.effAddr, now + lat.early);
            value = commitMem.read(x.effAddr, size);
        }
        if (e.inst.op == Opcode::LDL)
            value = static_cast<Word>(sext(value, 32));

        // Periodically cross-check the SAM decoder against the set index
        // the cache would compute with a full addition (section 3.6).
        if ((++samCheckCounter & 1023) == 0) {
            const Word base =
                e.inst.rb == zeroReg ? 0 : regs.readTc(e.physB);
            const Word disp =
                static_cast<Word>(static_cast<SWord>(e.inst.disp));
            const unsigned expect = static_cast<unsigned>(
                ((base + disp) / config.dl1.lineBytes) %
                samDl1.numSets());
            assert(samDl1.decode(base, disp) == expect);
            if (e.inst.rb != zeroReg && regs.holdsRb(e.physB)) {
                assert(samDl1.decodeRb(regs.readRb(e.physB),
                                       static_cast<SWord>(e.inst.disp)) ==
                       expect);
            }
        }

        e.resultTc = value;
        e.wroteReg = e.dest != invalidPhysReg;
        if (e.dest != invalidPhysReg) {
            regs.writeTc(e.dest, value);
            ProdAvail p;
            p.early = p.late = data_ready;
            p.rfTc = data_ready + config.numBypassLevels;
            p.cluster = e.cluster;
            p.dual = false;
            produceAndWake(e.dest, p);
        }
        e.complete = true;
        e.completeCycle = data_ready + config.rfReadDepth;
        return;
    }

    if (e.isMemStore) {
        e.effAddr = x.effAddr;
        e.memSize = memAccessSize(e.inst.op);
        e.storeData = x.storeData;
        if (!e.storeAddrRecorded) {
            lsq.setAddress(seq, x.effAddr, e.memSize);
            e.storeAddrRecorded = true;
        }
        lsq.setStoreData(seq, x.storeData);
        e.complete = true;
        e.completeCycle =
            now + config.rfReadDepth + config.storeCompleteLat;
        return;
    }

    if (e.isCtrl) {
        e.actualTaken = x.taken;
        e.actualNextPc = x.nextPc;
        const Cycle resolve =
            now + config.rfReadDepth + config.branchResolveLat();
        if (e.dest != invalidPhysReg) {
            regs.writeTc(e.dest, x.tc);
            produceAndWake(
                e.dest, ProdAvail::make(now, lat, config.numBypassLevels,
                                        e.cluster));
            e.resultTc = x.tc;
            e.wroteReg = true;
        }
        if (e.actualNextPc != e.predNextPc) {
            e.mispredicted = true;
            pendingFlushes.push_back(
                PendingFlush{resolve, e.seq, e.actualNextPc});
            if (e.fetchStalledJmp)
                ++coreStats.jmpFetchStalls;
        }
        e.complete = true;
        e.completeCycle = resolve;
        return;
    }

    // Plain register-writing (or no-op) instruction.
    if (e.dest != invalidPhysReg) {
        if (x.hasRb)
            regs.writeRb(e.dest, x.rb);
        else
            regs.writeTc(e.dest, x.tc);
        produceAndWake(
            e.dest, ProdAvail::make(now, lat, config.numBypassLevels,
                                    e.cluster));
        e.resultTc = x.tc;
        e.wroteReg = true;
    }
    e.complete = true;
    e.completeCycle = now + config.rfReadDepth + lat.late;
}

// ------------------------------------------------------------- dispatch

void
OooCore::doDispatch()
{
    for (unsigned n = 0; n < config.renameWidth; ++n) {
        if (frontPipe.empty())
            return;
        const FrontEntry &fe = frontPipe.front();
        if (now < fe.fetchedAt + config.fetchDecodeDepth +
                      config.renameDepth)
            return;
        const Inst &inst = fe.fi.inst;
        const bool is_mem = isLoad(inst.op) || isStore(inst.op);

        if (!rob.hasSpace())
            return;
        if (is_mem && !lsq.hasSpace())
            return;
        const unsigned target = pickScheduler(inst);
        if (target >= config.numSchedulers)
            return; // no scheduler can accept (strict RR: target full)
        if (writesDest(inst) && !rename.hasFree())
            return;

        const std::uint64_t seq = nextSeq++;
        RobEntry &e = rob.alloc(seq);
        e.pcIndex = fe.fi.pcIndex;
        e.inst = inst;
        e.dispatchCycle = now;
        e.fetchCycle = fe.fetchedAt;
        e.sched = static_cast<std::uint8_t>(target);
        e.cluster = static_cast<std::uint8_t>(
            target * config.numClusters / config.numSchedulers);
        e.isCtrl = fe.fi.isCtrl;
        e.predTaken = fe.fi.predTaken;
        e.predNextPc =
            fe.fi.stalledJmp ? ~std::uint64_t{0} : fe.fi.predNextPc;
        e.fetchStalledJmp = fe.fi.stalledJmp;
        if (fe.fi.isCtrl) {
            // Fetch queued one snapshot per control instruction, in
            // order; it moves beside the ROB entry until retirement.
            robSnaps[rob.slotOf(seq)] = frontSnaps.front();
            frontSnaps.pop_front();
        }
        e.isMemLoad = isLoad(inst.op);
        e.isMemStore = isStore(inst.op);
        e.isHalt = inst.op == Opcode::HALT;

        // Source mappings (before destination allocation).
        const SrcRegs srcs = srcRegs(inst);
        e.numSrcs = static_cast<std::uint8_t>(srcs.count);
        for (unsigned i = 0; i < srcs.count; ++i) {
            e.src[i].reg = rename.lookup(srcs.reg[i]);
            e.src[i].needsTc =
                srcFormatReq(inst, i) == Format::TC;
        }
        e.physA = inst.ra == zeroReg ? invalidPhysReg
                                     : rename.lookup(inst.ra);
        e.physB = inst.rb == zeroReg ? invalidPhysReg
                                     : rename.lookup(inst.rb);
        e.physC = inst.rc == zeroReg ? invalidPhysReg
                                     : rename.lookup(inst.rc);

        // Destination allocation.
        const unsigned dst = destReg(inst);
        if (dst != zeroReg) {
            e.archDest = static_cast<std::uint8_t>(dst);
            const auto [fresh, prev] = rename.allocate(dst);
            e.dest = fresh;
            e.prevDest = prev;
            scoreboard.markPending(fresh);
        }

        if (e.dest != invalidPhysReg)
            producerSched[e.dest] = static_cast<std::uint8_t>(target);

        if (is_mem)
            lsq.insert(seq, e.isMemStore);
        const SchedulerBank::SlotRef ref = sched.insert(target, seq);
        sched.advanceSteering();
        armDispatch(e, ref);
        if (tracer)
            tracer->onDispatch(e);

        frontPipe.pop_front();
        ++coreStats.dispatched;
    }
}

unsigned
OooCore::pickScheduler(const Inst &inst, bool commit)
{
    if (config.steering == Steering::RoundRobinPairs) {
        const unsigned target = sched.steerTarget();
        return sched.hasSpace(target) ? target : config.numSchedulers;
    }

    if (config.steering == Steering::ClassPartition) {
        // Section 4.3's separate-scheduler organization: RB-output
        // instruction classes fill the lower half of the schedulers
        // round-robin, TC-only classes the upper half (wakeup latching
        // between them is already embodied by the late latencies).
        const bool rb_class = outputFormat(inst.op) == Format::RB ||
                              inputFormat(inst.op) == Format::RB;
        const unsigned half = config.numSchedulers / 2;
        const unsigned lo = rb_class ? 0 : half;
        const unsigned n = std::max(1u, half);
        for (unsigned k = 0; k < n; ++k) {
            const unsigned s = lo + (classRr + k) % n;
            if (s < config.numSchedulers && sched.hasSpace(s)) {
                if (commit)
                    classRr = (classRr + k + 1) % n;
                return s;
            }
        }
        return config.numSchedulers; // partition full: stall
    }

    // Dependence-aware: prefer the scheduler that dispatched the first
    // register source's producer; fall back to the least-occupied
    // scheduler with space.
    const SrcRegs srcs = srcRegs(inst);
    for (unsigned i = 0; i < srcs.count; ++i) {
        const PhysReg p = rename.lookup(srcs.reg[i]);
        const std::uint8_t s = producerSched[p];
        if (s != 0xff && sched.hasSpace(s))
            return s;
    }
    unsigned best = config.numSchedulers;
    std::size_t best_occ = ~std::size_t{0};
    for (unsigned s = 0; s < config.numSchedulers; ++s) {
        if (sched.hasSpace(s) && sched.occupancyOf(s) < best_occ) {
            best = s;
            best_occ = sched.occupancyOf(s);
        }
    }
    return best;
}

// ---------------------------------------------------------------- fetch

void
OooCore::doFetch()
{
    if (frontPipe.size() + config.fetchWidth > frontPipeCap)
        return;
    fetchBuf.clear();
    fetch.fetchCycle(now, fetchBuf, frontSnaps);
    for (const FetchedInst &fi : fetchBuf) {
        frontPipe.push_back(FrontEntry{fi, now});
        ++coreStats.fetched;
    }
}

} // namespace rbsim

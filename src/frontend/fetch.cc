#include "frontend/fetch.hh"

#include "isa/opclass.hh"

namespace rbsim
{

FetchEngine::FetchEngine(const MachineConfig &cfg, const Program &prog,
                         MemHierarchy &mem)
    : config(cfg), program(prog), memory(mem), fetchPc(prog.entry)
{
}

void
FetchEngine::redirect(std::uint64_t pc_index, Cycle now)
{
    fetchPc = pc_index;
    stopped = false;
    resumeCycle = now + 1;
    lastLine = ~Addr{0};
}

unsigned
FetchEngine::fetchCycle(Cycle now, std::vector<FetchedInst> &out,
                        StaticRing<BpSnapshot> &snaps)
{
    unsigned fetched = 0;
    if (stopped || now < resumeCycle)
        return fetched;
    if (fetchPc >= program.code.size()) {
        stopped = true; // off the code image: wait for a squash
        return fetched;
    }

    unsigned blocks_started = 1;
    while (fetched < config.fetchWidth) {
        if (fetchPc >= program.code.size())
            break;

        // Instruction cache: charge misses; pipelined hits are covered
        // by the front-end depth.
        const Addr line =
            program.byteAddrOf(fetchPc) & ~Addr{config.il1.lineBytes - 1};
        if (line != lastLine) {
            const Cycle ready = memory.instFetch(line, now);
            lastLine = line;
            if (ready > now + config.il1.latency) {
                // Miss: deliver what we have, resume when the line fills.
                resumeCycle = ready;
                icacheStallCycles += ready - now;
                return fetched;
            }
        }

        FetchedInst f;
        f.pcIndex = fetchPc;
        f.inst = program.code[fetchPc];
        f.isCtrl = isControl(f.inst.op);

        if (f.inst.op == Opcode::HALT) {
            out.push_back(f);
            ++fetched;
            stopped = true; // nothing sensible follows
            break;
        }

        if (!f.isCtrl) {
            out.push_back(f);
            ++fetched;
            ++fetchPc;
            continue;
        }

        // Control instruction: capture repair state, predict, follow.
        BpSnapshot &snap = snaps.push_back_slot();
        snap.globalHistory = predictor.globalHistory();
        ras.save(snap);
        snap.indices = BpIndices{};

        const Inst &inst = f.inst;
        if (isCondBranch(inst.op)) {
            f.predTaken = predictor.predict(f.pcIndex, &snap.indices);
            predictor.speculate(f.pcIndex, f.predTaken);
            f.predNextPc = f.predTaken
                ? static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(f.pcIndex) + 1 + inst.disp)
                : f.pcIndex + 1;
        } else if (inst.op == Opcode::BR || inst.op == Opcode::BSR) {
            f.predTaken = true;
            f.predNextPc = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(f.pcIndex) + 1 + inst.disp);
            if (inst.op == Opcode::BSR && inst.ra != zeroReg)
                ras.push(program.byteAddrOf(f.pcIndex + 1));
        } else { // JMP
            f.predTaken = true;
            const bool is_return = inst.ra == zeroReg;
            if (is_return) {
                const Addr target = ras.pop();
                if (program.isCodeAddr(target)) {
                    f.predNextPc = program.indexOf(target);
                } else {
                    f.stalledJmp = true;
                }
            } else {
                // Indirect call: predict through the BTB, push the
                // return address.
                std::uint64_t target = 0;
                if (btb.lookup(f.pcIndex, target) &&
                    target < program.code.size()) {
                    f.predNextPc = target;
                } else {
                    f.stalledJmp = true;
                }
                ras.push(program.byteAddrOf(f.pcIndex + 1));
            }
        }

        out.push_back(f);
        ++fetched;

        if (f.stalledJmp) {
            stopped = true; // resume at resolution via redirect()
            break;
        }

        fetchPc = f.predNextPc;
        if (f.predTaken && f.predNextPc != f.pcIndex + 1) {
            // Followed a taken branch: starting another basic block.
            if (++blocks_started > config.fetchBlocks)
                break;
        } else {
            // Not-taken branch also ends a basic block.
            if (++blocks_started > config.fetchBlocks)
                break;
        }
    }
    return fetched;
}

} // namespace rbsim

#include "sim/fastfwd.hh"

#include <stdexcept>

#include "isa/opclass.hh"

namespace rbsim
{

namespace
{

/**
 * Execution-event sink plugged into the predecoded interpreter loop
 * (Interp::runSink): warms exactly the state the old StepRecord-driven
 * loop did, in the same order per instruction — IL1 line on line change,
 * then the data-side touch, then predictor/RAS/BTB — so checkpoints and
 * every gated sampling baseline stay bit-identical, minus the StepRecord
 * materialization cost.
 */
struct WarmSink
{
    MemHierarchy &mem;
    HybridPredictor &predictor;
    Btb &btb;
    Ras &ras;
    Addr &lastLine;
    Addr codeBase;
    Addr lineMask;

    void
    preStep(std::uint64_t pc)
    {
        // The fetch engine touches the IL1 only when the fetch line
        // changes (FetchEngine's lastLine discipline).
        const Addr line = (codeBase + Addr{4} * pc) & lineMask;
        if (line != lastLine) {
            mem.warmInstTouch(line);
            lastLine = line;
        }
    }

    void regWrite(std::uint16_t, Word) {}
    void load(Addr ea, Word) { mem.warmLoadTouch(ea); }
    void store(Addr ea, Word) { mem.warmStoreTouch(ea); }

    void
    condBranch(std::uint64_t pc, bool taken)
    {
        predictor.touch(pc, taken);
    }

    void br() {}

    //! Only linking BSRs decode to the Bsr handler (an unlinked BSR is
    //! a plain Br), so every bsr() event pushes the RAS.
    void bsr(Addr ret) { ras.push(ret); }

    void jmpRet() { ras.pop(); } // return idiom (JMP with ra == r31)

    void
    jmpCall(std::uint64_t pc, std::uint64_t target_index, Addr ret)
    {
        // Indirect call: fetch pushes the return address, and
        // retirement trains the BTB at the architectural target.
        ras.push(ret);
        btb.update(pc, target_index);
    }

    void halt() {}
};

} // namespace

FastForward::FastForward(const MachineConfig &config, const Program &prog)
    : cfg(config), program(prog), interp(prog), warmMem(cfg)
{
}

std::uint64_t
FastForward::run(std::uint64_t max_insts)
{
    WarmSink sink{warmMem,           predictor,
                  btb,               ras,
                  lastLine,          program.codeBase,
                  ~Addr{cfg.il1.lineBytes - 1}};
    const std::uint64_t done = interp.runSink(max_insts, sink);
    insts += done;
    return done;
}

void
FastForward::capture(ArchCheckpoint &out) const
{
    if (interp.halted())
        throw std::logic_error("cannot checkpoint a halted program");
    out = ArchCheckpoint{};
    out.progHash = interp.decoded().progHash; // hashed once, at binding
    out.pc = interp.pc();
    out.instsExecuted = insts;
    for (unsigned r = 0; r < numArchRegs; ++r)
        out.regs[r] = interp.reg(r);
    out.pages = interp.mem().snapshotPages();
    out.bpred = predictor.saveState();
    out.btb = btb.entries();
    ras.save(out.ras);
    out.il1 = warmMem.il1().saveTags();
    out.dl1 = warmMem.dl1().saveTags();
    out.l2 = warmMem.l2().saveTags();
}

} // namespace rbsim

#include "trace/tracer.hh"

#include <bit>
#include <sstream>

#include "isa/disasm.hh"

namespace rbsim::trace
{

namespace
{

//! Initial span of trace ids that can wait for in-order emission. The
//! built-in workloads reach at most ~590 on the paper machines at
//! widths 4 and 8, so serving them never grows it.
constexpr std::size_t initialPendingSlots = 1024;

} // namespace

Tracer::Tracer(const Options &opts_)
    : opts(opts_), pending(initialPendingSlots)
{
    if (opts.ringCap)
        ringBuf.init(opts.ringCap);
}

Tracer::Record
Tracer::capture(RobEntry &e, Cycle now, Fate fate) const
{
    Record r;
    r.id = e.traceId;
    r.seq = e.seq;
    r.pcIndex = e.pcIndex;
    r.inst = e.inst;
    r.fetch = e.fetchCycle;
    r.dispatch = e.dispatchCycle;
    // A squashed instruction may have issued but not yet reached its
    // (future-dated) completion cycle: clamp to what really happened.
    r.issued = e.issued && e.issueCycle <= now;
    r.issue = e.issueCycle;
    r.completed = e.complete && e.completeCycle <= now;
    r.complete = e.completeCycle;
    r.end = now;
    r.holeWait = e.holeWait;
    r.srcBypass = e.srcBypass;
    r.numSrcs = e.numSrcs;
    r.fate = fate;
    r.isStore = e.isMemStore;
    r.loadForwarded = e.loadForwarded;
    r.usedRbPath = e.usedRbPath;
    r.bogusCorrected = e.bogusCorrected;
    r.mispredicted = e.mispredicted;
    e.traceId = 0;
    return r;
}

TraceEntry
Tracer::expand(const Record &r) const
{
    TraceEntry t;
    t.id = r.id;
    t.seq = r.seq;
    t.pc = codeBase + 4 * r.pcIndex;
    t.fetch = r.fetch;
    t.decode = r.fetch + decodeDepth;
    t.rename = t.decode + renameDepth;
    t.dispatch = r.dispatch;
    t.issued = r.issued;
    t.issue = r.issued ? r.issue : 0;
    t.completed = r.completed;
    t.complete = r.completed ? r.complete : 0;
    t.retire = r.fate == Fate::Retired ? r.end : 0;
    t.squashed = r.fate != Fate::Retired;
    t.isStore = r.isStore;

    std::ostringstream text;
    text << disassemble(r.inst, r.pcIndex);
    for (unsigned i = 0; i < r.numSrcs; ++i) {
        const std::uint8_t v = r.srcBypass[i];
        if (v == srcUnknown)
            continue;
        text << " s" << i << '=';
        const unsigned level = v & srcLevelMask;
        if (level == 0)
            text << "RF";
        else
            text << "BYP" << level;
        text << (v & srcRbForm ? "/RB" : "/TC");
    }
    if (r.holeWait)
        text << " hole=" << r.holeWait;
    if (r.loadForwarded)
        text << " stlf";
    if (r.usedRbPath)
        text << " rb";
    if (r.bogusCorrected)
        text << " bogusfix";
    if (r.mispredicted)
        text << " mispred";
    if (r.fate == Fate::Squashed)
        text << " SQUASHED@" << r.end << " by seq=" << r.causeSeq
             << " pc=" << r.causePc;
    else if (r.fate == Fate::Aborted)
        text << " IN-FLIGHT(" << r.why << ")";
    t.text = text.str();
    return t;
}

void
Tracer::onRetire(RobEntry &e, Cycle now)
{
    if (e.traceId == 0)
        return; // dispatched before the tracer was attached
    finalize(capture(e, now, Fate::Retired));
}

void
Tracer::onSquash(RobEntry &e, Cycle now, std::uint64_t causeSeq,
                 std::uint64_t causePc)
{
    if (e.traceId == 0)
        return;
    Record r = capture(e, now, Fate::Squashed);
    r.causeSeq = causeSeq;
    r.causePc = causePc;
    finalize(r);
}

void
Tracer::onAbort(RobEntry &e, Cycle now, const char *why)
{
    if (e.traceId == 0)
        return; // already finalized (e.g. retired into a throwing hook)
    Record r = capture(e, now, Fate::Aborted);
    r.why = why;
    finalize(r);
}

void
Tracer::finalize(const Record &r)
{
    ++numFinalized;
    if (r.id > nextEmit) {
        park(r); // an older instruction is still in flight
        return;
    }
    emit(r);
    if (r.id < nextEmit)
        return; // an id finish() skipped as never reported
    // Emit the contiguous dispatch-order prefix parked behind it.
    const std::size_t mask = pending.size() - 1;
    for (++nextEmit; pending[nextEmit & mask].id == nextEmit; ++nextEmit)
        emit(pending[nextEmit & mask]);
}

void
Tracer::park(const Record &r)
{
    if (r.id - nextEmit >= pending.size()) {
        std::vector<Record> wider(std::bit_ceil(r.id - nextEmit + 1));
        for (const Record &w : pending) {
            if (w.id >= nextEmit)
                wider[w.id & (wider.size() - 1)] = w;
        }
        pending.swap(wider);
    }
    pending[r.id & (pending.size() - 1)] = r;
}

void
Tracer::emit(const Record &r)
{
    if (opts.stream)
        *opts.stream << render(expand(r));
    if (opts.ringCap) {
        if (ringBuf.size() == opts.ringCap)
            ringBuf.pop_front();
        ringBuf.push_back(r);
    }
}

void
Tracer::finish()
{
    // Ids can have gaps here only if some in-flight entries were never
    // reported (traceInFlight not called); emit what we have, in order.
    const std::size_t mask = pending.size() - 1;
    for (; nextEmit < nextId; ++nextEmit) {
        if (pending[nextEmit & mask].id == nextEmit)
            emit(pending[nextEmit & mask]);
    }
    if (opts.stream)
        opts.stream->flush();
}

std::string
Tracer::render(const TraceEntry &e)
{
    const auto tick = [](Cycle c, bool reached) -> Cycle {
        return reached ? (c + 1) * ticksPerCycle : 0;
    };
    std::ostringstream os;
    os << "O3PipeView:fetch:" << tick(e.fetch, true) << ":0x" << std::hex
       << e.pc << std::dec << ":0:" << e.id << ':' << e.text << '\n';
    os << "O3PipeView:decode:" << tick(e.decode, true) << '\n';
    os << "O3PipeView:rename:" << tick(e.rename, true) << '\n';
    os << "O3PipeView:dispatch:" << tick(e.dispatch, true) << '\n';
    os << "O3PipeView:issue:" << tick(e.issue, e.issued) << '\n';
    os << "O3PipeView:complete:" << tick(e.complete, e.completed) << '\n';
    const Cycle retire_tick = tick(e.retire, !e.squashed);
    os << "O3PipeView:retire:" << retire_tick << ":store:"
       << (e.isStore && !e.squashed ? retire_tick : 0) << '\n';
    return os.str();
}

std::vector<TraceEntry>
Tracer::ring() const
{
    std::vector<TraceEntry> out;
    out.reserve(ringBuf.size());
    for (std::size_t i = 0; i < ringBuf.size(); ++i)
        out.push_back(expand(ringBuf[i]));
    return out;
}

std::string
Tracer::renderRing() const
{
    std::string out;
    for (const TraceEntry &t : ring())
        out += render(t);
    return out;
}

} // namespace rbsim::trace

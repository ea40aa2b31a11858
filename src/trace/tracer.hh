/**
 * @file
 * Per-instruction pipeline lifecycle tracing.
 *
 * Each dynamic instruction that reaches dispatch is assigned a
 * monotonically increasing trace id; when it retires, is squashed, or is
 * stranded by an aborted run, its full lifecycle (fetch through retire,
 * plus rbsim-specific annotations: per-source bypass level and format,
 * hole-wait cycles, squash cause) is rendered as one gem5
 * `O3PipeView`-format block, loadable in the Konata pipeline viewer.
 *
 * Two sinks hang behind the one class: an optional text stream (written
 * in trace-id order, i.e. dispatch order, as O3PipeView requires) and an
 * optional in-memory ring buffer of the last N instructions, dumped on
 * cosim mismatch, watchdog abort, or fuzz-oracle failure.
 *
 * Both sinks share one capture path: each finalized instruction is
 * copied into a fixed-size raw record, and its text is built only when
 * a sink reads it — on stream emission, or at ring()/renderRing(). The
 * record buffers are sized at construction, so a ring-only tracer
 * allocates nothing while the core runs (unless a run outgrows the
 * initial in-order emission window, which then doubles).
 *
 * Tracing is zero-cost when disabled: the core holds a raw
 * `trace::Tracer *` (nullptr by default) and every hook sits behind a
 * single pointer test — no virtual calls, no allocation, no stats. A
 * tracer must be attached before the core runs and adds no registered
 * statistics, so traced and untraced runs produce bit-identical
 * StatSnapshots.
 */

#ifndef RBSIM_TRACE_TRACER_HH
#define RBSIM_TRACE_TRACER_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "common/types.hh"
#include "core/rob.hh"

namespace rbsim::trace
{

// Encoding of RobEntry::srcBypass (one byte per source operand).
constexpr std::uint8_t srcUnknown = 0xff; //!< never issued / untraced
constexpr std::uint8_t srcLevelMask = 0x0f; //!< bypass level; 0 = RF
constexpr std::uint8_t srcRbForm = 0x40; //!< arrived in redundant binary

//! O3PipeView ticks per simulated cycle. Stage ticks are (cycle + 1) *
//! ticksPerCycle so tick 0 can mean "stage never happened" (gem5's
//! convention for squashed instructions) even for instructions fetched
//! at cycle 0.
constexpr Cycle ticksPerCycle = 1000;

/** One finalized dynamic instruction, ready to render. */
struct TraceEntry
{
    std::uint64_t id = 0;  //!< dispatch-order trace id (unique)
    std::uint64_t seq = 0; //!< ROB sequence number (recycled on squash)
    Addr pc = 0;           //!< byte address of the instruction

    Cycle fetch = 0;
    Cycle decode = 0;
    Cycle rename = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;    //!< valid iff `issued`
    Cycle complete = 0; //!< valid iff `completed`
    Cycle retire = 0;   //!< valid iff neither squashed nor aborted

    bool issued = false;
    bool completed = false;
    bool squashed = false; //!< squashed or stranded at abort
    bool isStore = false;

    //! Disassembly plus annotations (bypass levels, hole waits, squash
    //! cause) — becomes the instruction text Konata displays.
    std::string text;
};

/**
 * The tracer. Constructed with a sink configuration, attached to an
 * OooCore (OooCore::attachTracer, which also hands it the run's code
 * base and front-end depths) before the run; call finish() after the
 * run (and OooCore::traceInFlight first, if the run did not drain
 * cleanly) to flush instructions still buffered for in-order emission.
 */
class Tracer
{
  public:
    struct Options
    {
        std::ostream *stream = nullptr; //!< O3PipeView text sink
        std::size_t ringCap = 0;        //!< keep last N entries (0 = off)
    };

    explicit Tracer(const Options &opts_);

    /** The geometry stage timestamps and PCs are rebuilt from: the
     * program's code base and the machine's fetch-to-decode and rename
     * depths (OooCore::attachTracer sets it). */
    void
    setGeometry(Addr code_base, unsigned decode_depth,
                unsigned rename_depth)
    {
        codeBase = code_base;
        decodeDepth = decode_depth;
        renameDepth = rename_depth;
    }

    // ------------------------------------------------------ core hooks

    /** Dispatch: assign the entry its trace id. */
    void
    onDispatch(RobEntry &e)
    {
        e.traceId = nextId++;
    }

    /** In-order retirement at cycle `now` (called before the cosim
     * retire hook, so a mismatching instruction is already in the ring
     * when the checker throws). */
    void onRetire(RobEntry &e, Cycle now);

    /** Squash at cycle `now`, caused by the branch with sequence number
     * `causeSeq` at instruction index `causePc`. */
    void onSquash(RobEntry &e, Cycle now, std::uint64_t causeSeq,
                  std::uint64_t causePc);

    /** An instruction stranded in flight when the run aborted (watchdog
     * deadlock, cosim mismatch, cycle budget). Idempotent per entry.
     * `why` is kept by pointer and rendered on demand, so it must
     * outlive the tracer (pass a string literal). */
    void onAbort(RobEntry &e, Cycle now, const char *why);

    /** Flush entries still held for in-order emission and the stream.
     * Idempotent; rendering after finish() is still allowed. */
    void finish();

    // ------------------------------------------------------------ sinks

    /** The ring buffer (oldest first), rendered from its records. */
    std::vector<TraceEntry> ring() const;

    /** Render the whole ring buffer as one O3PipeView document. */
    std::string renderRing() const;

    /** Instructions finalized (retired + squashed + aborted) so far. */
    std::uint64_t finalized() const { return numFinalized; }

    /** Render one entry as an O3PipeView block (7 lines). */
    static std::string render(const TraceEntry &e);

  private:
    enum class Fate : std::uint8_t
    {
        Retired,
        Squashed,
        Aborted
    };

    /** One finalized instruction as captured: a fixed-size copy of the
     * RobEntry fields its O3PipeView block is rendered from. */
    struct Record
    {
        std::uint64_t id = 0; //!< trace id; 0 marks an empty slot
        std::uint64_t seq = 0;
        std::uint64_t pcIndex = 0;
        Inst inst;
        Cycle fetch = 0;
        Cycle dispatch = 0;
        Cycle issue = 0;    //!< valid iff `issued`
        Cycle complete = 0; //!< valid iff `completed`
        Cycle end = 0;      //!< cycle of the retire, squash or abort
        std::uint64_t causeSeq = 0; //!< squashing branch (Squashed)
        std::uint64_t causePc = 0;
        const char *why = nullptr; //!< abort reason (Aborted)
        std::uint32_t holeWait = 0;
        std::array<std::uint8_t, 3> srcBypass{};
        std::uint8_t numSrcs = 0;
        Fate fate = Fate::Retired;
        bool issued = false;
        bool completed = false;
        bool isStore = false;
        bool loadForwarded = false;
        bool usedRbPath = false;
        bool bogusCorrected = false;
        bool mispredicted = false;
    };

    Record capture(RobEntry &e, Cycle now, Fate fate) const;
    TraceEntry expand(const Record &r) const;
    void finalize(const Record &r);
    void park(const Record &r);
    void emit(const Record &r);

    Options opts;
    Addr codeBase = 0x10000;  //!< Program::codeBase of the run
    unsigned decodeDepth = 6; //!< MachineConfig::fetchDecodeDepth
    unsigned renameDepth = 2; //!< MachineConfig::renameDepth
    std::uint64_t nextId = 1;
    std::uint64_t nextEmit = 1;
    std::uint64_t numFinalized = 0;
    //! Finalization is out of order (squash walks youngest-first while
    //! older instructions are still in flight); O3PipeView wants fetch
    //! order. Records finalized ahead of `nextEmit` wait in slot
    //! `id & (size - 1)`; the array doubles only when the span of ids
    //! waiting outgrows it.
    std::vector<Record> pending;
    StaticRing<Record> ringBuf; //!< last ringCap emitted records
};

} // namespace rbsim::trace

#endif // RBSIM_TRACE_TRACER_HH

/**
 * @file
 * Architectural checkpoints: everything needed to resume a program
 * mid-run on a freshly built core — architectural registers, PC, the
 * memory image (copy-on-write page shares, zumastor-snapshot style) —
 * plus the warm microarchitectural state that makes short detailed
 * windows representative: branch-predictor tables, BTB, RAS, and the
 * three cache tag arrays.
 *
 * Checkpoints are immutable after capture and cheap to hold: memory
 * pages are shared with the image they were captured from (the first
 * write on either side clones the touched page), and the warm tables are
 * flat copies (~1 MiB for the paper's Table 2 machine). serialize() /
 * deserialize() give a stable little-endian binary form whose round-trip
 * is bit-exact (tests/test_checkpoint.cc), and fingerprint() hashes that
 * form for result-cache identity.
 */

#ifndef RBSIM_SIM_CHECKPOINT_HH
#define RBSIM_SIM_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <string>

#include "frontend/branch_pred.hh"
#include "func/mem_image.hh"
#include "mem/cache.hh"

namespace rbsim
{

/** One resumable point of one program's execution. */
struct ArchCheckpoint
{
    // ------------------------------------------- architectural state
    std::uint64_t progHash = 0; //!< Program::hash() of the captured run
    std::uint64_t pc = 0;       //!< next instruction index to execute
    std::uint64_t instsExecuted = 0; //!< position in the dynamic stream
    std::array<Word, numArchRegs> regs{};
    PageMap pages; //!< CoW shares of the captured image

    // ---------------------------------- warm microarchitectural state
    PredictorState bpred;
    std::vector<Btb::Entry> btb;
    BpSnapshot ras; //!< rasTop + stack (the indices field is unused)
    CacheModel::TagState il1, dl1, l2;

    /** Stable binary form (little-endian, pages in address order). */
    std::string serialize() const;

    /** Rebuild from serialize() output. Throws std::runtime_error on a
     * malformed or truncated image. */
    static ArchCheckpoint deserialize(const std::string &bytes);

    /**
     * FNV-1a hash of the serialized form: the checkpoint's result-cache
     * identity (two checkpoints with equal fingerprints resume
     * identically). The serializer's bytes stream straight into the
     * hash, so the image is never built. Computed once and memoized —
     * checkpoints are immutable after capture.
     */
    std::uint64_t fingerprint() const;

  private:
    mutable std::uint64_t cachedFp = 0; //!< 0 = not yet computed
};

} // namespace rbsim

#endif // RBSIM_SIM_CHECKPOINT_HH

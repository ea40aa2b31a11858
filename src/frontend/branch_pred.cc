#include "frontend/branch_pred.hh"

namespace rbsim
{

HybridPredictor::HybridPredictor()
    : gshareTable(1u << ghistBits, 1),    // weakly not-taken
      localHist(numLocalHist, 0),
      localPht(1u << localHistBits, 1),
      chooser(1u << chooserBits, 2)       // weakly prefer gshare... see below
{
    // Chooser semantics: counter >= 2 selects gshare, < 2 selects local.
    // Initialized to 2 so the global component starts as the default.
}

unsigned
HybridPredictor::gshareIndexWith(std::uint64_t pc, std::uint32_t hist) const
{
    return static_cast<unsigned>(
        (pc ^ hist) & ((1u << ghistBits) - 1));
}

unsigned
HybridPredictor::gshareIndex(std::uint64_t pc) const
{
    return gshareIndexWith(pc, ghist);
}

unsigned
HybridPredictor::localIndex(std::uint64_t pc) const
{
    return static_cast<unsigned>(pc & (numLocalHist - 1));
}

unsigned
HybridPredictor::chooserIndex(std::uint64_t pc) const
{
    return static_cast<unsigned>(
        (pc ^ ghist) & ((1u << chooserBits) - 1));
}

BpIndices
HybridPredictor::indicesFor(std::uint64_t pc) const
{
    BpIndices idx;
    idx.gidx = gshareIndex(pc);
    const std::uint16_t lh = localHist[localIndex(pc)];
    idx.lidx = static_cast<std::uint32_t>(
        (lh ^ pc) & ((1u << localHistBits) - 1));
    idx.cidx = chooserIndex(pc);
    return idx;
}

bool
HybridPredictor::predict(std::uint64_t pc, BpIndices *latched) const
{
    const BpIndices idx = indicesFor(pc);
    if (latched)
        *latched = idx;
    const bool g = gshareTable[idx.gidx] >= 2;
    const bool l = localPht[idx.lidx] >= 2;
    const bool useGshare = chooser[idx.cidx] >= 2;
    ++lookups;
    ++(useGshare ? gshareChosen : localChosen);
    return useGshare ? g : l;
}

void
HybridPredictor::speculate(std::uint64_t pc, bool taken)
{
    ghist = ((ghist << 1) | (taken ? 1 : 0)) & ghistMask;
    // Local history updates speculatively and is not repaired on squash
    // (documented approximation).
    std::uint16_t &lh = localHist[localIndex(pc)];
    lh = static_cast<std::uint16_t>(
        ((lh << 1) | (taken ? 1 : 0)) & ((1u << localHistBits) - 1));
}

void
HybridPredictor::update(const BpIndices &idx, bool taken)
{
    // Retirement training of the exact entries the prediction read.
    const bool g = gshareTable[idx.gidx] >= 2;
    const bool l = localPht[idx.lidx] >= 2;
    gshareTable[idx.gidx] = counterUpdate(gshareTable[idx.gidx], taken);
    localPht[idx.lidx] = counterUpdate(localPht[idx.lidx], taken);
    if (g != l) {
        // Train the chooser toward whichever component was right.
        chooser[idx.cidx] = counterUpdate(chooser[idx.cidx], g == taken);
    }
}

Btb::Btb(unsigned entries)
    : table(entries)
{
    unsigned bits = 0;
    while ((1u << bits) < entries)
        ++bits;
    indexBits = bits;
}

unsigned
Btb::indexOf(std::uint64_t pc) const
{
    return static_cast<unsigned>(pc & ((1u << indexBits) - 1));
}

std::uint32_t
Btb::tagOf(std::uint64_t pc) const
{
    return static_cast<std::uint32_t>(pc >> indexBits) & 0xffff;
}

bool
Btb::lookup(std::uint64_t pc, std::uint64_t &target) const
{
    const Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != tagOf(pc))
        return false;
    target = e.target;
    return true;
}

void
Btb::update(std::uint64_t pc, std::uint64_t target)
{
    Entry &e = table[indexOf(pc)];
    e.valid = true;
    e.tag = tagOf(pc);
    e.target = target;
}

} // namespace rbsim

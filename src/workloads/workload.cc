#include "workloads/workload.hh"

#include <stdexcept>

#include "workloads/gen/opstream.hh"

namespace rbsim
{

const std::vector<WorkloadInfo> &
allWorkloads()
{
    static const std::vector<WorkloadInfo> registry = {
        // SPECint95-like.
        {"go", "spec95", "board-scan heuristics, branchy", buildGo95},
        {"m88ksim", "spec95", "interpreter with indirect dispatch",
         buildM88ksim95},
        {"gcc", "spec95", "binary-tree walks, pointer chasing",
         buildGcc95},
        {"compress", "spec95", "LZW hash loop over a byte stream",
         buildCompress95},
        {"li", "spec95", "cons-cell traversals with helper calls",
         buildLi95},
        {"ijpeg", "spec95", "integer DCT blocks, multiply-heavy",
         buildIjpeg95},
        {"perl", "spec95", "string hashing and table probing",
         buildPerl95},
        {"vortex", "spec95", "record/transaction processing",
         buildVortex95},
        // SPECint2000-like.
        {"gzip", "spec2000", "LZ77 hash chains and match loops",
         buildGzip00},
        {"vpr", "spec2000", "placement swaps with accept/reject",
         buildVpr00},
        {"gcc00", "spec2000", "larger tree walks plus RTL bit mangling",
         buildGcc00},
        {"mcf", "spec2000", "out-of-cache pointer chasing", buildMcf00},
        {"crafty", "spec2000", "bitboard logicals and popcounts",
         buildCrafty00},
        {"parser", "spec2000", "dictionary bucket-list lookups",
         buildParser00},
        {"eon", "spec2000", "fp-flavored interpolation loops",
         buildEon00},
        {"perlbmk", "spec2000", "hashing plus char-class dispatch",
         buildPerlbmk00},
        {"gap", "spec2000", "multiword bignum add/carry chains",
         buildGap00},
        {"vortex00", "spec2000", "scaled-up record transactions",
         buildVortex00},
        {"bzip2", "spec2000", "partition sort and byte histograms",
         buildBzip200},
        {"twolf", "spec2000", "annealing with table-driven costs",
         buildTwolf00},
    };
    return registry;
}

std::vector<WorkloadInfo>
suiteWorkloads(const std::string &suite)
{
    std::vector<WorkloadInfo> out;
    for (const WorkloadInfo &w : allWorkloads()) {
        if (w.suite == suite)
            out.push_back(w);
    }
    return out;
}

WorkloadInfo
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : allWorkloads()) {
        if (w.name == name)
            return w;
    }
    // Generator presets ("ycsb-a", "zipf-0.75", "chase-l2", ...) resolve
    // like registered workloads, so the serve protocol and every bench
    // CLI reach them by name.
    try {
        WorkloadInfo info = gen::genWorkloadInfo(gen::genPreset(name));
        info.name = name; // keep the queried spelling addressable
        return info;
    } catch (const std::invalid_argument &) {
        throw std::out_of_range("unknown workload: " + name);
    }
}

} // namespace rbsim

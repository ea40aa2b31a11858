/**
 * @file
 * The serving layer (docs/SERVING.md):
 *  - Program::hash() content identity (assemble/disassemble round-trip,
 *    single-instruction sensitivity, the data image of many or
 *    overlapping writes, values pinned across image representations);
 *  - SimService result caching and in-batch coalescing;
 *  - the machine-config codec: every listed field round-trips, the
 *    check runs before any core component, SERVING.md's key table is
 *    the field list rendered;
 *  - protocol edge cases: malformed JSON, unknown machine / workload /
 *    key, malformed shapes, oversized programs, duplicate ids,
 *    duplicate in-flight jobs — all structured per-job error records,
 *    with the server still serving afterwards.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "sim/fastfwd.hh"
#include "workloads/workload.hh"

#if !defined(RBSIM_CORPUS_DIR) || !defined(RBSIM_SERVING_DOC)
#error "RBSIM_CORPUS_DIR and RBSIM_SERVING_DOC must be defined"
#endif

namespace rbsim
{
namespace
{

Program
hashSubject(std::int64_t tweak)
{
    CodeBuilder cb("hash-subject");
    cb.ldiq(R(1), 0x1000 + tweak);
    cb.ldiq(R(2), 3);
    cb.op3(Opcode::ADDQ, R(1), R(2), R(3));
    cb.opi(Opcode::SUBQ, R(3), 1, R(4));
    cb.halt();
    return cb.finish();
}

// ------------------------------------------------------- Program::hash

TEST(ProgramHash, DeterministicAndNameBlind)
{
    const Program a = hashSubject(0);
    Program b = hashSubject(0);
    EXPECT_EQ(a.hash(), b.hash());
    b.name = "different-name";
    EXPECT_EQ(a.hash(), b.hash()) << "name must not affect content hash";
}

TEST(ProgramHash, AssembleRoundTripPreservesHash)
{
    // The same identity the fuzz corpus relies on: disassembling and
    // re-assembling a program preserves its content.
    const Program orig = hashSubject(7);
    const Program round = assemble(disassembleProgram(orig));
    EXPECT_EQ(orig.hash(), round.hash());

    // Also through a registered workload generator (data image too):
    // the same resident pages holding the same bytes.
    WorkloadParams wp;
    const Program wl = findWorkload("compress").build(wp);
    const Program wlRound = assemble(disassembleProgram(wl));
    EXPECT_EQ(wl.hash(), wlRound.hash());
    EXPECT_TRUE(wlRound.sameContent(wl));

    // An all-zero page stays resident, and bytes written off word
    // alignment across a page boundary come back in their words.
    Program odd = hashSubject(3);
    odd.addDataWords(0x6000, std::vector<Word>(8, 0));
    odd.addDataBytes(0x7ffd, {1, 0, 2, 3, 0, 4});
    const Program oddRound = assemble(disassembleProgram(odd));
    EXPECT_EQ(oddRound.image.size(), 3u);
    EXPECT_TRUE(oddRound.sameContent(odd));
}

TEST(ProgramHash, SingleInstructionMutationChangesHash)
{
    const Program a = hashSubject(0);
    const Program b = hashSubject(1); // one literal differs
    EXPECT_NE(a.hash(), b.hash());

    CodeBuilder cb("hash-subject");
    cb.ldiq(R(1), 0x1000);
    cb.ldiq(R(2), 3);
    cb.op3(Opcode::SUBQ, R(1), R(2), R(3)); // opcode differs
    cb.opi(Opcode::SUBQ, R(3), 1, R(4));
    cb.halt();
    EXPECT_NE(a.hash(), cb.finish().hash());
}

TEST(ProgramHash, PerLineQuadImageEqualsTheBuilderTwin)
{
    // 80k `.quad` lines, zeros among them, build the same image as the
    // one-call builder twin, and hash equal.
    constexpr int lines = 80'000;
    const Addr base = 0x400000;
    std::vector<Word> words;
    std::string src = ".org " + std::to_string(base) + "\n";
    for (int i = 0; i < lines; ++i) {
        const Word w = i % 5 == 0 ? 0 : 0x100000 + 7 * Word(i);
        words.push_back(w);
        src += ".quad " + std::to_string(w) + "\n";
    }
    src += "halt\n";
    const Program assembled = assemble(src);

    CodeBuilder cb("quad-twin");
    cb.halt();
    cb.dataWords(base, words);
    const Program twin = cb.finish();
    EXPECT_TRUE(assembled.sameContent(twin));
    EXPECT_EQ(assembled.hash(), twin.hash());
}

/** Data writes replayed into a std::map: the image a program must hold
 * (later writes win byte by byte; every written address, zero or not,
 * is resident). */
struct ImageModel
{
    std::map<Addr, std::uint8_t> bytes;

    void
    write(Program &prog, Addr base, std::vector<std::uint8_t> b)
    {
        for (std::size_t i = 0; i < b.size(); ++i)
            bytes[base + i] = b[i];
        prog.addDataBytes(base, std::move(b));
    }

    /** `prog`'s code with the model's image, one single-byte write per
     * address, highest address first. */
    Program
    twin(const Program &prog) const
    {
        Program t = prog;
        t.image.clear();
        for (auto it = bytes.rbegin(); it != bytes.rend(); ++it)
            t.addDataBytes(it->first, {it->second});
        return t;
    }

    /** The image holds exactly the model's bytes. */
    bool
    matches(const Program &prog) const
    {
        std::size_t nonzero = 0;
        for (const auto &[addr, byte] : bytes) {
            const auto page = prog.image.find(addr >> pageShift);
            if (page == prog.image.end() ||
                (*page->second)[addr & (pageSize - 1)] != byte)
                return false;
            nonzero += byte != 0;
        }
        std::size_t resident = 0;
        for (const auto &[page_no, page] : prog.image)
            for (std::uint8_t b : *page)
                resident += b != 0;
        return resident == nonzero;
    }
};

TEST(ProgramHash, LaterWritesWinByteByByte)
{
    // Writes land in order, byte by byte; zeros erase.
    const auto build = [](std::uint8_t third, std::uint8_t fourth,
                          ImageModel &model) {
        Program p = hashSubject(0);
        model.write(p, 0x2000, {1, 2, third, fourth, 5, 6, 7, 8});
        // Tail + beyond; the 0s erase 6 and 7.
        model.write(p, 0x2004, {9, 0, 0, 10, 11, 12});
        model.write(p, 0x1ffe, {13, 14, 15}); // head, from below
        model.write(p, 0x2002, {0});          // a zero erasing 3
        model.write(p, 0x3000, {});
        return p;
    };
    ImageModel model;
    const Program p = build(3, 4, model);
    EXPECT_TRUE(model.matches(p));
    EXPECT_TRUE(p.sameContent(model.twin(p)));
    EXPECT_EQ(p.hash(), model.twin(p).hash());

    // Only surviving bytes count: 3 (at 0x2002) was erased, 4 (at
    // 0x2003) survives.
    ImageModel scratch;
    EXPECT_EQ(build(3 ^ 0xff, 4, scratch).hash(), p.hash());
    EXPECT_NE(build(3, 4 ^ 0xff, scratch).hash(), p.hash());

    // Random stacks of overlapping writes in a small window straddling
    // a page boundary, zeros included.
    std::mt19937_64 rng(2002);
    for (int trial = 0; trial < 200; ++trial) {
        Program q = hashSubject(trial);
        ImageModel m;
        const int writes = 1 + static_cast<int>(rng() % 24);
        for (int k = 0; k < writes; ++k) {
            std::vector<std::uint8_t> bytes(rng() % 40);
            for (std::uint8_t &b : bytes)
                b = rng() % 3 == 0 ? 0 : static_cast<std::uint8_t>(rng());
            m.write(q, 0x7fd0 + rng() % 96, std::move(bytes));
        }
        ASSERT_TRUE(m.matches(q)) << "trial " << trial;
        ASSERT_TRUE(q.sameContent(m.twin(q))) << "trial " << trial;
        ASSERT_EQ(q.hash(), m.twin(q).hash()) << "trial " << trial;
    }
}

TEST(ProgramHash, CopiesShareAndNeverWriteSharedPages)
{
    Program a = hashSubject(0);
    a.addDataWords(0x5000, {1, 2, 3});
    const Program b = a;
    ASSERT_EQ(b.image.at(0x5), a.image.at(0x5)); // shared, not copied
    a.addDataWords(0x5008, {7});
    EXPECT_NE(b.image.at(0x5), a.image.at(0x5));
    EXPECT_EQ((*b.image.at(0x5))[8], 2u);
    EXPECT_EQ((*a.image.at(0x5))[8], 7u);
    EXPECT_FALSE(a.sameContent(b));
    EXPECT_NE(a.hash(), b.hash());
}

TEST(ProgramHash, PinnedAcrossImageRepresentations)
{
    // Program identity must not move with how the image is held: the
    // sampled-long benchmark's refs pin the scale-40 values, and the
    // scale-1 values were recorded under the earlier segment-list
    // representation.
    const std::map<std::string, std::uint64_t> scale1 = {
        {"go", 0x3b1f983e44a53c2dull},
        {"m88ksim", 0x75a1145ea346ae79ull},
        {"gcc", 0x61fbd63ed1c8ac59ull},
        {"compress", 0x4e8238e617d9b0f1ull},
        {"li", 0x749ee115a98c4ac2ull},
        {"ijpeg", 0xa0f2ff7b6d9f63e6ull},
        {"perl", 0x43c6b74404fb45b0ull},
        {"vortex", 0xceff9c889586667eull},
    };
    for (const WorkloadInfo &w : suiteWorkloads("spec95"))
        EXPECT_EQ(w.build(WorkloadParams{}).hash(), scale1.at(w.name))
            << w.name;

    const std::map<std::string, std::uint64_t> scale40 = {
        {"go", 0x4e9e962cdb38fd0bull},
        {"gcc", 0x0c02a356cfc3c5b9ull},
        {"li", 0xfd1b1e1ed87d159aull},
        {"vortex", 0xe2543592539aaad4ull},
    };
    WorkloadParams wp;
    wp.scale = 40;
    for (const auto &[name, pinned] : scale40)
        EXPECT_EQ(findWorkload(name).build(wp).hash(), pinned) << name;
}

// ------------------------------------------------------------ service

serve::JobSpec
compressSpec(const char *machine_alias = "rbfull")
{
    serve::JobRequest req;
    req.id = "x";
    req.workload = "compress";
    req.machine = machine_alias;
    req.width = 4;
    serve::JobSpec spec;
    spec.cfg = serve::requestConfig(req);
    WorkloadParams wp;
    spec.prog = findWorkload("compress").build(wp);
    return spec;
}

TEST(SimService, CachesAndCoalesces)
{
    serve::SimService service(
        serve::SimService::Options{/*workers=*/2, /*cacheCapacity=*/16});

    // An in-batch duplicate coalesces onto one execution.
    std::vector<serve::JobSpec> batch;
    batch.push_back(compressSpec());
    batch.push_back(compressSpec("base"));
    batch.push_back(compressSpec());
    const auto first = service.runBatch(std::move(batch));
    ASSERT_EQ(first.size(), 3u);
    for (const auto &o : first)
        ASSERT_TRUE(o.ok) << o.error;
    EXPECT_FALSE(first[0].cacheHit);
    EXPECT_FALSE(first[1].cacheHit);
    EXPECT_TRUE(first[2].cacheHit);
    EXPECT_EQ(first[0].result.stats, first[2].result.stats);
    EXPECT_EQ(service.counters().jobsExecuted, 2u);

    // A later identical batch is served from the LRU cache entirely.
    std::vector<serve::JobSpec> again;
    again.push_back(compressSpec());
    again.push_back(compressSpec("base"));
    const auto second = service.runBatch(std::move(again));
    ASSERT_TRUE(second[0].ok && second[1].ok);
    EXPECT_TRUE(second[0].cacheHit);
    EXPECT_TRUE(second[1].cacheHit);
    EXPECT_EQ(second[0].result.stats, first[0].result.stats);
    EXPECT_EQ(service.counters().jobsExecuted, 2u);
    EXPECT_GE(service.counters().cacheHits, 2u);
}

// ------------------------------------------------ result-cache identity

TEST(SimOptionsKey, GuardAgainstUnkeyedFields)
{
    // If this fires you added a field to SimOptions: fold it into
    // resultKey() (or document why it cannot affect results, like
    // tracer/profiler) and update the expected size. The serve result
    // cache serves stale results for any field this guard misses.
    struct Expected
    {
        Cycle maxCycles;
        bool cosim;
        trace::Tracer *tracer;
        HostProfiler *profiler;
        std::uint64_t maxInsts;
        std::uint64_t warmupInsts;
        std::shared_ptr<const ArchCheckpoint> startFrom;
    };
    static_assert(sizeof(SimOptions) == sizeof(Expected),
                  "new SimOptions field: revisit resultKey()");
    SUCCEED();
}

TEST(SimOptionsKey, EveryResultAffectingFieldChangesTheKey)
{
    const SimOptions base;
    auto key = [](auto mutate) {
        SimOptions o;
        mutate(o);
        return o.resultKey();
    };
    const std::string baseKey = base.resultKey();
    EXPECT_NE(key([](SimOptions &o) { o.maxCycles = 7; }), baseKey);
    EXPECT_NE(key([](SimOptions &o) { o.cosim = false; }), baseKey);
    EXPECT_NE(key([](SimOptions &o) { o.maxInsts = 1000; }), baseKey);
    EXPECT_NE(key([](SimOptions &o) { o.warmupInsts = 100; }), baseKey);
    EXPECT_NE(key([](SimOptions &o) {
                  o.startFrom = std::make_shared<ArchCheckpoint>();
              }),
              baseKey);
    // Observers do NOT change the key (they never alter stats).
    EXPECT_EQ(key([](SimOptions &o) {
                  o.tracer = reinterpret_cast<trace::Tracer *>(0x1);
              }),
              baseKey);

    // Distinct checkpoints key distinctly; equal-content ones share.
    ArchCheckpoint a, b;
    a.pc = 10;
    b.pc = 20;
    SimOptions oa, ob, oa2;
    oa.startFrom = std::make_shared<ArchCheckpoint>(a);
    ob.startFrom = std::make_shared<ArchCheckpoint>(b);
    oa2.startFrom = std::make_shared<ArchCheckpoint>(a);
    EXPECT_NE(oa.resultKey(), ob.resultKey());
    EXPECT_EQ(oa.resultKey(), oa2.resultKey());
}

// ----------------------------------------------------- protocol basics

TEST(ServeProtocol, ConfigJsonRoundTrips)
{
    for (unsigned width : {4u, 8u, 16u}) {
        for (MachineKind kind :
             {MachineKind::Baseline, MachineKind::RbLimited,
              MachineKind::RbFull, MachineKind::Ideal}) {
            const MachineConfig cfg = MachineConfig::make(kind, width);
            const Json j = configToJson(cfg);
            // A paper machine is its kind and width alone.
            EXPECT_EQ(j.size(), 2u) << j.dump();
            EXPECT_EQ(configKey(configFromJson(j)), configKey(cfg));
        }
    }
    // An ablation knob survives the wire.
    MachineConfig ab = MachineConfig::makeIdealLimited(4, 0b001);
    ab.label = "Ideal-L1";
    const MachineConfig round = configFromJson(configToJson(ab));
    EXPECT_EQ(configKey(ab), configKey(round));
    EXPECT_EQ(round.bypassLevelMask, 0b001);
    EXPECT_EQ(configKey(ab), R"({"kind":"ideal","width":4,)"
                             R"("label":"Ideal-L1","bypass_level_mask":1})");
}

TEST(ServeProtocol, PartialCacheObjectOverlaysTheNamedMachine)
{
    // A cache object keeps the named machine's values for the keys it
    // leaves out, like the config object around it.
    const MachineConfig cfg = configFromJson(Json::parse(
        R"({"kind":"Baseline","dl1":{"assoc":4},"l2":{"banks":4}})"));
    MachineConfig want = MachineConfig::make(MachineKind::Baseline, 4);
    want.dl1.assoc = 4;
    want.l2.banks = 4;
    EXPECT_EQ(configKey(cfg), configKey(want));
    EXPECT_EQ(configKey(cfg), R"({"kind":"base","width":4,)"
                              R"("dl1":{"assoc":4},"l2":{"banks":4}})");
}

// ------------------------------------------------------- config codec

TEST(ConfigCodec, GuardAgainstFieldsMissingFromTheList)
{
    // If this stops compiling you added a field to MachineConfig or
    // CacheParams: add it to configFields or cacheFields
    // (core/machine_config.hh) with its key and range, then update the
    // bindings, the mirrors and the counts. A field the list misses
    // travels in no request, keys no cache entry and escapes
    // checkConfig, so the result cache would serve stale results.
    //
    // A structured binding names every member, so a member added
    // anywhere, into padding too, breaks it; the size mirrors also
    // catch a member whose type grew.
    [[maybe_unused]] const auto &[c0, c1, c2, c3, c4, c5] = CacheParams{};
    static_assert(std::size(cacheFields) == 6);
    [[maybe_unused]] const auto &[m0, m1, m2, m3, m4, m5, m6, m7, m8, m9,
                                  m10, m11, m12, m13, m14, m15, m16, m17,
                                  m18, m19, m20, m21, m22, m23, m24, m25,
                                  m26, m27, m28, m29, m30, m31] =
        MachineConfig{};
    static_assert(std::size(configFields) == 32);
    struct ExpectedCache
    {
        std::uint32_t sizeBytes, assoc, lineBytes;
        unsigned latency, banks, bankBusy;
    };
    static_assert(sizeof(CacheParams) == sizeof(ExpectedCache),
                  "new CacheParams field: add it to cacheFields");
    struct Expected
    {
        MachineKind kind;
        std::string label;
        unsigned width, numSchedulers, schedEntries, selectWidth,
            numClusters, crossClusterDelay;
        unsigned fetchWidth, fetchBlocks, renameWidth, retireWidth,
            robEntries, lsqEntries, physRegs, fetchDecodeDepth,
            renameDepth, rfReadDepth;
        unsigned numBypassLevels;
        std::uint8_t bypassLevelMask;
        bool holeAwareScheduling;
        Steering steering;
        bool wakeupOracle;
        Cycle deadlockCycles;
        CacheParams il1, dl1, l2;
        unsigned memLatency, memBanks, memBankBusy;
        LatencyTable latency;
        unsigned storeCompleteLat;
    };
    static_assert(sizeof(MachineConfig) == sizeof(Expected),
                  "new MachineConfig field: add it to configFields");
    SUCCEED();
}

TEST(ConfigCodec, EveryListedFieldRoundTripsAndChangesTheKey)
{
    // Each listed field in turn takes a value other than the base
    // machine's that its range accepts (doubling keeps a power of two
    // one, and a cache a power-of-two number of sets). The value must
    // come back exactly and must change configKey.
    const MachineConfig base = MachineConfig::make(MachineKind::RbLimited, 4);
    const std::string base_key = configKey(base);
    const auto twice = [](auto v) {
        return static_cast<decltype(v)>(v ? 2 * v : 1);
    };
    const auto expectRoundTrip = [&](const MachineConfig &cfg,
                                     auto same_field) {
        ASSERT_NO_THROW(checkConfig(cfg));
        const MachineConfig back = configFromJson(configToJson(cfg));
        EXPECT_TRUE(same_field(back));
        EXPECT_EQ(configKey(back), configKey(cfg));
        EXPECT_NE(configKey(cfg), base_key);
    };
    for (const Field<MachineConfig> &f : configFields) {
        SCOPED_TRACE(std::string(f.key));
        std::visit(
            [&](auto m) {
                MachineConfig cfg = base;
                auto &v = cfg.*m;
                using T = std::remove_cvref_t<decltype(v)>;
                if constexpr (std::is_same_v<T, CacheParams>) {
                    for (const Field<CacheParams> &c : cacheFields) {
                        SCOPED_TRACE(std::string(c.key));
                        const auto cm = std::get<unsigned CacheParams::*>(
                            c.member);
                        MachineConfig one = base;
                        (one.*m).*cm = twice((base.*m).*cm);
                        expectRoundTrip(one, [&](const MachineConfig &b) {
                            return (b.*m).*cm == (one.*m).*cm;
                        });
                    }
                } else {
                    if constexpr (std::is_same_v<T, MachineKind>)
                        v = MachineKind::RbFull;
                    else if constexpr (std::is_same_v<T, Steering>)
                        v = Steering::ClassPartition;
                    else if constexpr (std::is_same_v<T, std::string>)
                        v += "/x";
                    else if constexpr (std::is_same_v<T, bool>)
                        v = !v;
                    else if constexpr (std::is_same_v<T, LatencyTable>)
                        v[0].late = twice(v[0].late);
                    else
                        v = twice(v);
                    expectRoundTrip(cfg, [&](const MachineConfig &b) {
                        return b.*m == cfg.*m;
                    });
                }
            },
            f.member);
    }
}

TEST(ConfigCodec, RejectsWhatNoCoreCanBuild)
{
    for (const char *bad : {
             R"([4])",
             R"({"width":8})",                        // kind is required
             R"({"kind":"base","width":0})",
             R"({"kind":"base","width":6})",
             R"({"kind":"base","width":8.0})",         // not integral
             R"({"kind":"ideal","bypass_level_mask":256})",
             R"({"kind":"ideal","bypass_level_mask":1e30})",
             R"({"kind":"base","label":7})",
             R"({"kind":"base","steering":"psychic"})",
             R"({"kind":"base","dl1":{"sets":4}})",
             R"({"kind":"base","latency":[[1,1]]})",
             R"({"kind":"Ideal","width":4,"bypassMask":4})", // old keys
             R"({"kind":"Ideal","holeAware":false})",
         }) {
        EXPECT_THROW(configFromJson(Json::parse(bad)), std::invalid_argument)
            << bad;
    }
}

TEST(ConfigCodec, CodeBuiltConfigsAreCheckedBeforeAnyComponent)
{
    // A config built in code reaches the core without the codec; the
    // core and the fast-forward engine run checkConfig first, so an
    // impossible cache is an exception naming it, not an assertion deep
    // inside CacheModel.
    MachineConfig cfg = MachineConfig::make(MachineKind::Baseline, 4);
    cfg.dl1.assoc = 0;
    const Program prog = findWorkload("compress").build(WorkloadParams{});
    for (const bool fast_forward : {false, true}) {
        SCOPED_TRACE(fast_forward ? "FastForward" : "simulate");
        try {
            if (fast_forward)
                FastForward(cfg, prog).run(1);
            else
                simulate(cfg, prog);
            ADD_FAILURE() << "dl1.assoc = 0 was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("dl1"), std::string::npos)
                << e.what();
        }
    }
}

/** The SERVING.md table of config keys, as the field list renders it. */
std::string
renderConfigTable()
{
    const auto range = [](const auto &f) {
        return std::string(f.pow2 ? "power of two" : "integer") + " in [" +
               std::to_string(f.lo) + ", " + std::to_string(f.hi) + "]";
    };
    std::string out = "| key | value |\n|---|---|\n";
    for (const Field<MachineConfig> &f : configFields) {
        const std::string value = std::visit(
            [&](auto m) -> std::string {
                using T = std::remove_cvref_t<
                    decltype(std::declval<MachineConfig &>().*m)>;
                if constexpr (std::is_same_v<T, MachineKind>) {
                    std::string names;
                    for (MachineKind k :
                         {MachineKind::Baseline, MachineKind::RbLimited,
                          MachineKind::RbFull, MachineKind::Ideal})
                        names += "`" + std::string(machineAlias(k)) + "`, ";
                    return names + "or a figure label";
                } else if constexpr (std::is_same_v<T, Steering>) {
                    std::string names;
                    for (Steering s :
                         {Steering::RoundRobinPairs, Steering::DependenceAware,
                          Steering::ClassPartition})
                        names += (names.empty() ? "`" : ", `") +
                                 std::string(steeringName(s)) + "`";
                    return names;
                } else if constexpr (std::is_same_v<T, std::string>) {
                    return "string";
                } else if constexpr (std::is_same_v<T, bool>) {
                    return "`true` or `false`";
                } else if constexpr (std::is_same_v<T, CacheParams>) {
                    return "cache object (keys below)";
                } else if constexpr (std::is_same_v<T, LatencyTable>) {
                    return "array of " + std::to_string(numOpClasses) +
                           " `[early, late]` pairs, one per op class, "
                           "each an integer in [0, " +
                           std::to_string(
                               std::numeric_limits<unsigned>::max()) +
                           "]";
                } else {
                    return range(f);
                }
            },
            f.member);
        out += "| `" + std::string(f.key) + "` | " + value + " |\n";
    }
    out += "\n| cache key | value |\n|---|---|\n";
    for (const Field<CacheParams> &c : cacheFields)
        out += "| `" + std::string(c.key) + "` | " + range(c) + " |\n";
    return out;
}

TEST(ConfigCodec, ServingDocTableIsTheFieldListRendered)
{
    // docs/SERVING.md §3 lists the config keys between two marker
    // comments; on a difference, paste the rendering printed below
    // between them.
    const std::string begin = "<!-- config-fields:begin -->\n";
    const std::string end = "<!-- config-fields:end -->";
    std::ifstream in(RBSIM_SERVING_DOC);
    ASSERT_TRUE(in) << RBSIM_SERVING_DOC;
    std::ostringstream doc;
    doc << in.rdbuf();
    const std::string text = doc.str();
    const std::size_t from = text.find(begin);
    const std::size_t to = text.find(end);
    ASSERT_NE(from, std::string::npos);
    ASSERT_NE(to, std::string::npos);
    ASSERT_LT(from, to);
    const std::size_t body = from + begin.size();
    const std::string want = renderConfigTable();
    EXPECT_EQ(text.substr(body, to - body), want)
        << "the field list renders as:\n"
        << want;
}

TEST(ServeProtocol, RequestParsing)
{
    const serve::JobRequest req = serve::parseRequest(std::string(
        R"({"id":"j1","workload":"gcc","scale":2,"machine":"rblim",)"
        R"("width":8,"max_cycles":1000,)"
        R"("cosim":false,"stats":["core.ipc"]})"));
    EXPECT_EQ(req.id, "j1");
    EXPECT_EQ(req.workload, "gcc");
    EXPECT_EQ(req.scale, 2u);
    EXPECT_EQ(req.maxCycles, 1000u);
    EXPECT_FALSE(req.cosim);
    ASSERT_EQ(req.statSelect.size(), 1u);

    const MachineConfig cfg = serve::requestConfig(req);
    EXPECT_EQ(cfg.kind, MachineKind::RbLimited);
    EXPECT_EQ(cfg.width, 8u);
    EXPECT_FALSE(cfg.wakeupOracle);
    // Oracle mode is a config field like any other.
    EXPECT_TRUE(serve::requestConfig(
                    serve::parseRequest(std::string(
                        R"({"id":"j2","workload":"gcc","config":)"
                        R"({"kind":"rblim","wakeup_oracle":true}})")))
                    .wakeupOracle);
}

// ------------------------------------------------- server edge cases

/** A Server wired to an in-memory response sink. */
struct TestServer
{
    explicit TestServer(serve::Server::Options opts = makeOpts())
        : server(opts, [this](const std::string &line) {
              std::lock_guard<std::mutex> lock(mu);
              lines.push_back(line);
          })
    {}

    static serve::Server::Options
    makeOpts()
    {
        serve::Server::Options o;
        o.service.workers = 1;
        return o;
    }

    /** Feed a line and wait for every accepted job to respond. */
    std::vector<Json>
    roundTrip(const std::string &line)
    {
        server.handleLine(line);
        server.drain();
        std::lock_guard<std::mutex> lock(mu);
        std::vector<Json> parsed;
        for (const std::string &l : lines)
            parsed.push_back(Json::parse(l));
        lines.clear();
        return parsed;
    }

    std::mutex mu;
    std::vector<std::string> lines;
    serve::Server server;
};

void
expectError(const std::vector<Json> &resp, const char *code)
{
    ASSERT_EQ(resp.size(), 1u);
    const Json *ok = resp[0].find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->asBool());
    const Json *c = resp[0].find("code");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->asString(), code);
}

TEST(ServeServer, StructuredErrorsAndSurvival)
{
    TestServer ts;

    expectError(ts.roundTrip("this is not json"), "parse");
    // A key named twice is a parse error, not a silently kept last value.
    expectError(ts.roundTrip(R"({"id":"e0","workload":"compress",)"
                             R"("config":{"kind":"base","width":16,)"
                             R"("width":4}})"),
                "parse");
    expectError(ts.roundTrip(R"({"id":"e1","workload":"compress",)"
                             R"("machine":"pentium"})"),
                "unknown-machine");
    expectError(ts.roundTrip(R"({"id":"e9","workload":"compress",)"
                             R"("config":{"kind":"pentium","width":8}})"),
                "unknown-machine");
    expectError(ts.roundTrip(R"({"id":"e2","workload":"doom",)"
                             R"("machine":"base"})"),
                "unknown-workload");
    // Oracle mode is the config's wakeup_oracle; a request has no
    // "scheduler" key.
    for (const char *sched : {"oracle", "polled"}) {
        expectError(ts.roundTrip(R"({"id":"e3","workload":"compress",)"
                                 R"("machine":"base","scheduler":")" +
                                 std::string(sched) + "\"}"),
                    "bad-request");
    }
    // Shape errors: missing id, program+workload both, neither machine
    // nor config, unknown key.
    expectError(ts.roundTrip(R"({"workload":"compress","machine":"base"})"),
                "bad-request");
    expectError(ts.roundTrip(R"({"id":"e4","workload":"compress",)"
                             R"("program":"halt","machine":"base"})"),
                "bad-request");
    expectError(ts.roundTrip(R"({"id":"e5","workload":"compress"})"),
                "bad-request");
    expectError(ts.roundTrip(R"({"id":"e6","workload":"compress",)"
                             R"("machine":"base","frobnicate":1})"),
                "bad-request");
    // Knobs this build does not have are unknown config keys; the
    // machine kind alone decides the RB bypass and register files.
    for (const char *key : {"polled_scheduler", "idle_skip",
                            "rb_limited_bypass", "has_rb_regfile"}) {
        expectError(ts.roundTrip(R"({"id":"e8","workload":"compress",)"
                                 R"("config":{"kind":"Baseline",")" +
                                 std::string(key) + "\":false}}"),
                    "bad-request");
    }
    expectError(ts.roundTrip(R"({"id":"e7","program":"not assembly",)"
                             R"("machine":"base"})"),
                "bad-program");

    // After all of that, the server still serves.
    const auto okResp = ts.roundTrip(
        R"({"id":"ok1","workload":"compress","machine":"base","width":4})");
    ASSERT_EQ(okResp.size(), 1u);
    EXPECT_TRUE(okResp[0].find("ok")->asBool());
    EXPECT_EQ(okResp[0].find("machine")->asString(), "Baseline");
    EXPECT_GT(okResp[0].find("ipc")->asDouble(), 0.0);
    EXPECT_EQ(ts.server.jobsOk(), 1u);
}

TEST(ServeServer, OutOfRangeMachineSizesAreBadRequests)
{
    // Structural sizes reach core constructors and assertions: zero
    // schedulers or a too-small register file used to abort the whole
    // server (exit 134) and lose every in-flight job. Each must now be a
    // structured bad-request, after which the same server still serves.
    TestServer ts;
    struct Case
    {
        const char *field;
        std::uint64_t value;
    };
    const Case cases[] = {
        {"num_schedulers", 0}, {"num_schedulers", 65},
        {"sched_entries", 0},  {"sched_entries", 4097},
        {"select_width", 0},   {"select_width", 65},
        {"rob_entries", 0},    {"rob_entries", 4097},
        {"rob_entries", std::uint64_t{1} << 32},
        {"lsq_entries", 0},    {"lsq_entries", 4097},
        {"fetch_width", 0},    {"fetch_width", 65},
        {"rename_width", 0},   {"rename_width", 65},
        {"retire_width", 0},   {"retire_width", 65},
        {"phys_regs", 8},      {"phys_regs", 32},
        {"phys_regs", 8193},   {"phys_regs", 65536},
        {"fetch_decode_depth", 65}, {"rename_depth", 65},
        // Bypass level k is bit k-1 of an 8-bit mask; levels past 32
        // would shift a 32-bit word out of range.
        {"num_bypass_levels", 0}, {"num_bypass_levels", 9},
        {"num_bypass_levels", 33},
        {"bypass_level_mask", 256}, {"bypass_level_mask", 263},
    };
    unsigned n = 0;
    const auto expectBadThenOk = [&](const std::string &bad_job) {
        const std::string id = std::to_string(n++);
        expectError(ts.roundTrip(R"({"id":"bad)" + id + "\"," + bad_job +
                                 "}"),
                    "bad-request");
        const auto ok = ts.roundTrip(R"({"id":"ok)" + id +
                                     R"(","workload":"compress",)"
                                     R"("machine":"base","max_insts":2000})");
        ASSERT_EQ(ok.size(), 1u);
        EXPECT_TRUE(ok[0].find("ok")->asBool());
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.field) + "=" + std::to_string(c.value));
        expectBadThenOk(R"("workload":"compress","config":)"
                        R"({"kind":"Baseline",")" +
                        std::string(c.field) + "\":" +
                        std::to_string(c.value) + "}");
    }

    // A cache or memory geometry that CacheModel or the DL1 SAM decoder
    // cannot build would divide by zero or trip an assertion; an integer
    // wider than its field would be truncated into another machine.
    const char *configs[] = {
        R"("dl1":{"assoc":0})",
        R"("dl1":{"line_bytes":0})",
        R"("dl1":{"line_bytes":48})",
        R"("dl1":{"size_bytes":0})",
        R"("dl1":{"size_bytes":100})",
        R"("dl1":{"size_bytes":12288})",
        R"("dl1":{"assoc":65536,"line_bytes":65536})",
        R"("dl1":{"size_bytes":4294967296})",
        R"("il1":{"assoc":3})",
        R"("il1":{"banks":0})",
        R"("l2":{"banks":0})",
        R"("l2":{"latency":4294967296})",
        R"("mem_banks":0)",
        R"("mem_latency":4294967296)",
        R"("num_clusters":4294967297)",
    };
    for (const char *c : configs) {
        SCOPED_TRACE(c);
        expectBadThenOk(R"("workload":"compress","config":)"
                        R"({"kind":"Baseline",)" +
                        std::string(c) + "}");
    }
    for (const char *req : {R"("width":4294967300)",
                            R"("scale":4294967297)"}) {
        SCOPED_TRACE(req);
        expectBadThenOk(R"("workload":"compress","machine":"base",)" +
                        std::string(req));
    }

    // A partial cache object keeps the named machine's other fields.
    const auto partial = ts.roundTrip(
        R"({"id":"dl1-assoc","workload":"compress","max_insts":2000,)"
        R"("config":{"kind":"Baseline","dl1":{"assoc":4},)"
        R"("l2":{"banks":1}}})");
    ASSERT_EQ(partial.size(), 1u);
    EXPECT_TRUE(partial[0].find("ok")->asBool());

    // The committed machines' largest sizes stay accepted.
    const auto big = ts.roundTrip(
        R"({"id":"w16","workload":"compress","max_insts":2000,)"
        R"("config":{"kind":"Ideal","width":16,"rob_entries":256,)"
        R"("phys_regs":640,"num_schedulers":8,"sched_entries":32}})");
    ASSERT_EQ(big.size(), 1u);
    EXPECT_TRUE(big[0].find("ok")->asBool());
}

TEST(ServeServer, EveryCorpusConfigLineIsAServableConfig)
{
    // A .repro config line and a request's "config" are one dialect:
    // each committed line, sent as text, runs.
    TestServer ts;
    const std::string prefix = "; rbsim-repro-config: ";
    unsigned n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(RBSIM_CORPUS_DIR)) {
        std::ifstream in(entry.path());
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind(prefix, 0) != 0)
                continue;
            const std::string config = line.substr(prefix.size());
            SCOPED_TRACE(entry.path().filename().string() + ": " + config);
            const auto resp = ts.roundTrip(
                R"({"id":"c)" + std::to_string(n++) +
                R"(","workload":"compress","max_insts":2000,"config":)" +
                config + "}");
            ASSERT_EQ(resp.size(), 1u);
            EXPECT_TRUE(resp[0].find("ok")->asBool()) << resp[0].dump();
        }
    }
    EXPECT_GE(n, 30u);
}

TEST(ServeServer, OversizedProgramsRejected)
{
    serve::Server::Options opts = TestServer::makeOpts();
    opts.maxProgramInsts = 3;
    opts.maxScale = 4;
    TestServer ts(opts);

    // The compress workload is far larger than 3 static instructions.
    expectError(ts.roundTrip(R"({"id":"o1","workload":"compress",)"
                             R"("machine":"base"})"),
                "oversized-program");
    expectError(ts.roundTrip(R"({"id":"o2","workload":"compress",)"
                             R"("machine":"base","scale":5})"),
                "oversized-program");
}

TEST(ServeServer, DuplicateIdAndDuplicateInFlight)
{
    TestServer ts;
    const std::string job =
        R"({"id":"d1","workload":"compress","machine":"ideal","width":4})";

    // Two identical jobs before the first completes: the second is
    // rejected as duplicate-in-flight (same payload), and its distinct
    // id is NOT burned by the rejection.
    ts.server.handleLine(job);
    const std::string job2 =
        R"({"id":"d2","workload":"compress","machine":"ideal","width":4})";
    ts.server.handleLine(job2);
    ts.server.drain();
    std::vector<Json> resp;
    {
        std::lock_guard<std::mutex> lock(ts.mu);
        for (const std::string &l : ts.lines)
            resp.push_back(Json::parse(l));
        ts.lines.clear();
    }
    ASSERT_EQ(resp.size(), 2u);
    // Response order is not guaranteed; find by id.
    const Json *first = nullptr, *second = nullptr;
    for (const Json &r : resp) {
        if (r.find("id")->asString() == "d1")
            first = &r;
        else if (r.find("id")->asString() == "d2")
            second = &r;
    }
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_TRUE(first->find("ok")->asBool());
    EXPECT_FALSE(second->find("ok")->asBool());
    EXPECT_EQ(second->find("code")->asString(), "duplicate-in-flight");

    // Re-using a completed job's id is duplicate-id.
    expectError(ts.roundTrip(job), "duplicate-id");

    // The rejected d2 can resubmit now and gets a cache hit.
    const auto retry = ts.roundTrip(job2);
    ASSERT_EQ(retry.size(), 1u);
    EXPECT_TRUE(retry[0].find("ok")->asBool());
    EXPECT_TRUE(retry[0].find("cache_hit")->asBool());
}

TEST(ServeServer, NonRfcNumbersAndEscapesAreParseErrors)
{
    // Each line holds JSON outside RFC 8259 (a \u escape without four
    // hex digits, a leading zero, a second fraction, a lone minus). It
    // answers parse instead of running with a guessed value, and the
    // job after it runs.
    TestServer ts;
    const char *bad[] = {
        R"({"id":"z\uZZZZ","workload":"compress","machine":"base",)"
        R"("max_insts":1000})",
        R"({"id":"n1","workload":"compress","machine":"base",)"
        R"("max_insts":01000})",
        R"({"id":"n2","workload":"compress","config":{"kind":"base",)"
        R"("mem_latency":1.0.0}})",
        R"({"id":"n3","workload":"compress","machine":"base",)"
        R"("max_insts":-})",
    };
    for (std::size_t i = 0; i < std::size(bad); ++i) {
        expectError(ts.roundTrip(bad[i]), "parse");
        const auto ok = ts.roundTrip(
            R"({"id":"ok)" + std::to_string(i) +
            R"(","workload":"compress","machine":"base","max_insts":1000})");
        ASSERT_EQ(ok.size(), 1u);
        EXPECT_TRUE(ok[0].find("ok")->asBool()) << bad[i];
    }
}

TEST(ServeServer, WakeupOracleConfigRunsTheOracle)
{
    // The config object is the one way to ask for oracle mode, so the
    // plain job after an oracle job is a job of its own, not a cache hit
    // of it.
    TestServer ts;
    for (const char *line :
         {R"({"id":"a","workload":"compress","config":{"kind":"base",)"
          R"("wakeup_oracle":true},"max_insts":2000})",
          R"({"id":"b","workload":"compress","machine":"base",)"
          R"("max_insts":2000})"}) {
        const auto resp = ts.roundTrip(line);
        ASSERT_EQ(resp.size(), 1u);
        EXPECT_TRUE(resp[0].find("ok")->asBool()) << line;
        EXPECT_FALSE(resp[0].find("cache_hit")->asBool()) << line;
    }
}

// ------------------------------------------- aborts through the server

TEST(ServeServer, WatchdogAbortCarriesLocalRunDiagnostics)
{
    TestServer ts;
    // A watchdog window far below the fetch-to-first-retire latency
    // aborts every run as a (simulated) retirement deadlock.
    const auto resp = ts.roundTrip(
        R"({"id":"w1","workload":"compress",)"
        R"("config":{"kind":"base","deadlock_cycles":3}})");
    ASSERT_EQ(resp.size(), 1u);
    const Json &r = resp[0];
    EXPECT_FALSE(r.find("ok")->asBool());
    ASSERT_NE(r.find("code"), nullptr);
    EXPECT_EQ(r.find("code")->asString(), "sim-aborted");
    ASSERT_NE(r.find("abort_kind"), nullptr);
    EXPECT_EQ(r.find("abort_kind")->asString(), "watchdog-deadlock");
    ASSERT_NE(r.find("deadlock_aborts"), nullptr);
    EXPECT_GE(r.find("deadlock_aborts")->asU64(), 1u);
    // The watchdog fires inside the cold-start icache miss here, before
    // a single instruction enters the pipeline — the trace ring is
    // genuinely empty, and an empty ring is omitted, exactly as a local
    // run dumps nothing. (The cycle-budget test below pins the
    // non-empty-ring side.)
    EXPECT_EQ(r.find("trace"), nullptr);
    EXPECT_EQ(ts.server.jobsFailed(), 1u);

    // Aborted results are not cached: a rerun with a sane watchdog (a
    // distinct config, so a distinct key) succeeds.
    const auto okResp = ts.roundTrip(
        R"({"id":"w2","workload":"compress","machine":"base"})");
    ASSERT_EQ(okResp.size(), 1u);
    EXPECT_TRUE(okResp[0].find("ok")->asBool());
}

TEST(ServeServer, CycleBudgetAbortIsClassifiedDistinctly)
{
    TestServer ts;
    // 2000 cycles: far past warm-up, nowhere near completion — the
    // budget cuts the run mid-flight with a full pipeline, so the
    // last-N ring dump must ride along in the error record.
    const auto resp = ts.roundTrip(
        R"({"id":"c1","workload":"compress","machine":"base",)"
        R"("max_cycles":2000})");
    ASSERT_EQ(resp.size(), 1u);
    const Json &r = resp[0];
    EXPECT_FALSE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("code")->asString(), "sim-aborted");
    EXPECT_EQ(r.find("abort_kind")->asString(), "cycle-budget");
    EXPECT_EQ(r.find("deadlock_aborts")->asU64(), 0u);
    ASSERT_NE(r.find("trace"), nullptr);
    EXPECT_NE(r.find("trace")->asString().find("O3PipeView:fetch:"),
              std::string::npos);
}

TEST(ServeServer, InstructionBudgetStopIsASuccess)
{
    TestServer ts;
    const auto resp = ts.roundTrip(
        R"({"id":"b1","workload":"compress","machine":"base",)"
        R"("max_insts":500})");
    ASSERT_EQ(resp.size(), 1u);
    const Json &r = resp[0];
    EXPECT_TRUE(r.find("ok")->asBool());
    EXPECT_FALSE(r.find("halted")->asBool());
    ASSERT_NE(r.find("inst_limited"), nullptr);
    EXPECT_TRUE(r.find("inst_limited")->asBool());
    EXPECT_GT(r.find("ipc")->asDouble(), 0.0);
}

// --------------------------------------------- sampled-request path

TEST(ServeServer, SampledRequestShipsMeanIpcWithCi)
{
    TestServer ts;
    const auto resp = ts.roundTrip(
        R"({"id":"s1","workload":"compress","machine":"rbfull",)"
        R"("sample":{"period_insts":4000,"warmup_insts":1000,)"
        R"("measure_insts":2000}})");
    ASSERT_EQ(resp.size(), 1u);
    const Json &r = resp[0];
    ASSERT_TRUE(r.find("ok")->asBool())
        << (r.find("error") ? r.find("error")->asString() : "");
    EXPECT_TRUE(r.find("sampled")->asBool());
    EXPECT_GE(r.find("windows")->asU64(), 2u);
    EXPECT_GT(r.find("ipc")->asDouble(), 0.0);
    ASSERT_NE(r.find("ipc_ci95"), nullptr);
    EXPECT_GE(r.find("ipc_ci95")->asDouble(), 0.0);
    EXPECT_TRUE(r.find("completed")->asBool());
    EXPECT_GT(r.find("ff_insts")->asU64(), 0u);
    ASSERT_NE(r.find("stats"), nullptr);

    // max_insts and sample are mutually exclusive.
    expectError(ts.roundTrip(
                    R"({"id":"s2","workload":"compress","machine":"base",)"
                    R"("max_insts":100,"sample":{"period_insts":1000,)"
                    R"("measure_insts":100}})"),
                "bad-request");
    // A zero-length regimen is rejected before any work happens.
    expectError(ts.roundTrip(
                    R"({"id":"s3","workload":"compress","machine":"base",)"
                    R"("sample":{"period_insts":0,"measure_insts":100}})"),
                "bad-request");
}

TEST(ServeServer, SampledRequestWhoseFastForwardFaultsFailsOnce)
{
    // A counted loop, then a JMP to a data address: the fast-forward
    // pass throws after it has handed windows to the worker.
    CodeBuilder cb("jmp-to-data");
    cb.ldiq(R(1), 5'000);
    const Label loop = cb.newLabel();
    cb.bind(loop);
    cb.opi(Opcode::ADDQ, R(2), 3, R(2));
    cb.opi(Opcode::SUBQ, R(1), 1, R(1));
    cb.branch(Opcode::BNE, R(1), loop);
    cb.ldiq(R(4), 0x200000);
    cb.jmp(R(26), R(4));
    cb.halt();

    TestServer ts;
    Json req = Json::object();
    req["id"] = "fault";
    req["program"] = disassembleProgram(cb.finish());
    req["machine"] = "rbfull";
    Json sample = Json::object();
    sample["period_insts"] = 2000;
    sample["warmup_insts"] = 200;
    sample["measure_insts"] = 500;
    req["sample"] = std::move(sample);
    const auto resp = ts.roundTrip(req.dump());
    expectError(resp, "sim-failed");
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_NE(resp[0].find("error")->asString().find("non-code"),
              std::string::npos);
    EXPECT_GE(ts.server.simService().counters().jobsExecuted, 2u);

    // Nothing more arrives once the windows are done, and the server
    // still serves.
    ts.server.drain();
    {
        std::lock_guard<std::mutex> lock(ts.mu);
        EXPECT_TRUE(ts.lines.empty());
    }
    const auto ok = ts.roundTrip(
        R"({"id":"after","workload":"compress","machine":"rbfull",)"
        R"("sample":{"period_insts":4000,"warmup_insts":1000,)"
        R"("measure_insts":2000}})");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_TRUE(ok[0].find("ok")->asBool());
}

} // namespace
} // namespace rbsim

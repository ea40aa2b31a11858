/**
 * @file
 * The serving layer (docs/SERVING.md):
 *  - Program::hash() content identity (assemble/disassemble round-trip,
 *    single-instruction sensitivity, the data image of many or
 *    overlapping writes, values pinned across image representations);
 *  - SimService result caching and in-batch coalescing;
 *  - protocol edge cases: malformed JSON, unknown machine / workload /
 *    scheduler, malformed shapes, oversized programs, duplicate ids,
 *    duplicate in-flight jobs — all structured per-job error records,
 *    with the server still serving afterwards.
 */

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "workloads/workload.hh"

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
    for (unsigned width : {4u, 8u}) {
        for (MachineKind kind :
             {MachineKind::Baseline, MachineKind::RbLimited,
              MachineKind::RbFull, MachineKind::Ideal}) {
            const MachineConfig cfg = MachineConfig::make(kind, width);
            const MachineConfig round =
                serve::configFromJson(serve::configToJson(cfg));
            EXPECT_EQ(serve::configKey(cfg), serve::configKey(round));
        }
    }
    // An ablation knob survives the wire.
    MachineConfig ab = MachineConfig::makeIdealLimited(4, 0b001);
    ab.label = "Ideal-L1";
    const MachineConfig round =
        serve::configFromJson(serve::configToJson(ab));
    EXPECT_EQ(serve::configKey(ab), serve::configKey(round));
    EXPECT_EQ(round.bypassLevelMask, 0b001);
}

TEST(ServeProtocol, RequestParsing)
{
    const serve::JobRequest req = serve::parseRequest(std::string(
        R"({"id":"j1","workload":"gcc","scale":2,"machine":"rblim",)"
        R"("width":8,"scheduler":"oracle","max_cycles":1000,)"
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
    EXPECT_TRUE(cfg.wakeupOracle);
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
    expectError(ts.roundTrip(R"({"id":"e1","workload":"compress",)"
                             R"("machine":"pentium"})"),
                "unknown-machine");
    expectError(ts.roundTrip(R"({"id":"e2","workload":"doom",)"
                             R"("machine":"base"})"),
                "unknown-workload");
    // "polled" names no scheduler of this build.
    for (const char *sched : {"psychic", "polled"}) {
        expectError(ts.roundTrip(R"({"id":"e3","workload":"compress",)"
                                 R"("machine":"base","scheduler":")" +
                                 std::string(sched) + "\"}"),
                    "unknown-scheduler");
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
    // Host knobs this build does not have are unknown config keys.
    for (const char *key : {"polled_scheduler", "idle_skip"}) {
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
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.field) + "=" + std::to_string(c.value));
        const std::string id = std::to_string(n++);
        expectError(ts.roundTrip(R"({"id":"bad)" + id +
                                 R"(","workload":"compress","config":)"
                                 R"({"kind":"Baseline",")" +
                                 c.field + "\":" +
                                 std::to_string(c.value) + "}}"),
                    "bad-request");
        const auto ok = ts.roundTrip(R"({"id":"ok)" + id +
                                     R"(","workload":"compress",)"
                                     R"("machine":"base","max_insts":2000})");
        ASSERT_EQ(ok.size(), 1u);
        EXPECT_TRUE(ok[0].find("ok")->asBool());
    }

    // The committed machines' largest sizes stay accepted.
    const auto big = ts.roundTrip(
        R"({"id":"w16","workload":"compress","max_insts":2000,)"
        R"("config":{"kind":"Ideal","width":16,"rob_entries":256,)"
        R"("phys_regs":640,"num_schedulers":8,"sched_entries":32}})");
    ASSERT_EQ(big.size(), 1u);
    EXPECT_TRUE(big[0].find("ok")->asBool());
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

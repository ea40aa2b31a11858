#include "fuzz/generator.hh"

#include <cassert>
#include <stdexcept>

#include "isa/builder.hh"

namespace rbsim::fuzz
{

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Arith: return "arith";
      case OpKind::Logical: return "logical";
      case OpKind::Shift: return "shift";
      case OpKind::Compare: return "compare";
      case OpKind::Cmov: return "cmov";
      case OpKind::Byte: return "byte";
      case OpKind::Count: return "count";
      case OpKind::Load: return "load";
      case OpKind::Store: return "store";
      case OpKind::Branch: return "branch";
      case OpKind::Mul: return "mul";
      case OpKind::Lda: return "lda";
      default: return "<bad>";
    }
}

GenOptions::GenOptions()
{
    weight.fill(1); // the historical uniform 12-way mix
}

GenOptions
GenOptions::preset(const std::string &name)
{
    GenOptions o;
    if (name == "default" || name.empty())
        return o;
    auto w = [&o](OpKind k) -> unsigned & {
        return o.weight[static_cast<unsigned>(k)];
    };
    if (name == "memory") {
        w(OpKind::Load) = 6;
        w(OpKind::Store) = 6;
        w(OpKind::Lda) = 2;
        o.aliasSlots = 4; // hammer a tiny window: forwarding + aliasing
        return o;
    }
    if (name == "branchy") {
        w(OpKind::Branch) = 6;
        w(OpKind::Compare) = 4;
        w(OpKind::Cmov) = 4;
        o.minBody = 8;
        o.maxBody = 20;
        return o;
    }
    if (name == "arith") {
        o.weight.fill(0);
        w(OpKind::Arith) = 6;
        w(OpKind::Mul) = 2;
        w(OpKind::Shift) = 2;
        w(OpKind::Lda) = 1;
        w(OpKind::Store) = 1; // keep results observable in memory
        return o;
    }
    // Stream-bridged presets: loop bodies follow a workload-generator op
    // stream. Key spaces are clamped small — sandbox displacements are
    // 16-bit, and a tight window also forces aliasing/forwarding.
    if (name == "ycsb") {
        o.useStream = true;
        o.stream = gen::genPreset("ycsb-a");
        o.stream.numKeys = 256;
        return o;
    }
    if (name == "pointer-chase") {
        o.useStream = true;
        o.stream = gen::genPreset("chase-dl1");
        o.stream.numKeys = 256;
        return o;
    }
    if (name == "branch-entropy") {
        o.useStream = true;
        o.stream = gen::genPreset("branch-0.9");
        return o;
    }
    if (name == "rb-adversarial") {
        o.useStream = true;
        o.stream = gen::genPreset("rb-adversarial");
        o.stream.numKeys = 256;
        return o;
    }
    throw std::invalid_argument("unknown generator preset '" + name + "'");
}

std::vector<std::string>
GenOptions::presetNames()
{
    return {"default",       "memory",         "branchy",
            "arith",         "ycsb",           "pointer-chase",
            "branch-entropy", "rb-adversarial"};
}

Json
genOptionsToJson(const GenOptions &opts)
{
    Json j = Json::object();
    Json weights = Json::object();
    for (unsigned k = 0; k < numOpKinds; ++k)
        weights[opKindName(static_cast<OpKind>(k))] = opts.weight[k];
    j["weights"] = std::move(weights);
    j["minBody"] = opts.minBody;
    j["maxBody"] = opts.maxBody;
    j["minTrips"] = opts.minTrips;
    j["maxTrips"] = opts.maxTrips;
    j["numSubs"] = opts.numSubs;
    j["jumpTable"] = opts.jumpTable;
    j["sandboxWords"] = opts.sandboxWords;
    j["aliasSlots"] = opts.aliasSlots;
    if (opts.useStream) {
        j["useStream"] = true;
        j["stream"] = opts.stream.toJsonValue();
    }
    return j;
}

GenOptions
genOptionsFromJson(const Json &j)
{
    if (!j.isObject())
        throw std::invalid_argument("gen options must be a JSON object");
    GenOptions o;
    for (const auto &[key, v] : j.items()) {
        if (key == "weights") {
            if (!v.isObject())
                throw std::invalid_argument("\"weights\" must be an object");
            for (const auto &[kname, w] : v.items()) {
                bool known = false;
                for (unsigned k = 0; k < numOpKinds; ++k) {
                    if (kname == opKindName(static_cast<OpKind>(k))) {
                        o.weight[k] = asSizeField(w, kname);
                        known = true;
                    }
                }
                if (!known)
                    throw std::invalid_argument(
                        "unknown op kind \"" + kname + "\"");
            }
        } else if (key == "minBody") {
            o.minBody = asSizeField(v, key);
        } else if (key == "maxBody") {
            o.maxBody = asSizeField(v, key);
        } else if (key == "minTrips") {
            o.minTrips = asSizeField(v, key);
        } else if (key == "maxTrips") {
            o.maxTrips = asSizeField(v, key);
        } else if (key == "numSubs") {
            o.numSubs = asSizeField(v, key);
        } else if (key == "jumpTable") {
            o.jumpTable = asBoolField(v, key);
        } else if (key == "sandboxWords") {
            o.sandboxWords = asSizeField(v, key);
        } else if (key == "aliasSlots") {
            o.aliasSlots = asSizeField(v, key);
        } else if (key == "useStream") {
            o.useStream = asBoolField(v, key);
        } else if (key == "stream") {
            o.stream = gen::GenConfig::fromJsonValue(v);
        } else {
            throw std::invalid_argument("unknown gen-options key \"" +
                                        key + "\"");
        }
    }
    return o;
}

namespace
{

std::uint8_t
randTemp(Rng &rng)
{
    return static_cast<std::uint8_t>(
        fuzzFirstTemp +
        rng.below(fuzzLastTemp - fuzzFirstTemp + 1));
}

OpKind
drawKind(Rng &rng, const GenOptions &opts)
{
    std::uint64_t total = 0;
    for (unsigned w : opts.weight)
        total += w;
    if (total == 0)
        return OpKind::Arith;
    std::uint64_t pick = rng.below(total);
    for (unsigned k = 0; k < numOpKinds; ++k) {
        if (pick < opts.weight[k])
            return static_cast<OpKind>(k);
        pick -= opts.weight[k];
    }
    return OpKind::Arith;
}

BodyOp
drawOp(Rng &rng, const GenOptions &opts)
{
    BodyOp op;
    op.kind = drawKind(rng, opts);
    op.a = randTemp(rng);
    op.b = randTemp(rng);
    op.c = randTemp(rng);

    switch (op.kind) {
      case OpKind::Arith: {
        static const Opcode arith[] = {
            Opcode::ADDQ, Opcode::SUBQ, Opcode::ADDL, Opcode::SUBL,
            Opcode::S4ADDQ, Opcode::S8ADDQ, Opcode::S4SUBQ,
            Opcode::S8SUBQ};
        op.op = arith[rng.below(std::size(arith))];
        break;
      }
      case OpKind::Logical: {
        static const Opcode logical[] = {
            Opcode::AND, Opcode::BIS, Opcode::XOR, Opcode::BIC,
            Opcode::ORNOT, Opcode::EQV};
        op.op = logical[rng.below(std::size(logical))];
        break;
      }
      case OpKind::Shift: {
        static const Opcode shifts[] = {Opcode::SLL, Opcode::SRL,
                                        Opcode::SRA};
        op.op = shifts[rng.below(std::size(shifts))];
        op.lit = static_cast<std::uint8_t>(rng.below(64));
        break;
      }
      case OpKind::Compare: {
        static const Opcode cmps[] = {Opcode::CMPEQ, Opcode::CMPLT,
                                      Opcode::CMPLE, Opcode::CMPULT,
                                      Opcode::CMPULE};
        op.op = cmps[rng.below(std::size(cmps))];
        break;
      }
      case OpKind::Cmov: {
        static const Opcode cmovs[] = {
            Opcode::CMOVEQ, Opcode::CMOVNE, Opcode::CMOVLT,
            Opcode::CMOVGE, Opcode::CMOVLE, Opcode::CMOVGT,
            Opcode::CMOVLBS, Opcode::CMOVLBC};
        op.op = cmovs[rng.below(std::size(cmovs))];
        break;
      }
      case OpKind::Byte: {
        static const Opcode bytes[] = {Opcode::EXTBL, Opcode::EXTWL,
                                       Opcode::EXTLL, Opcode::INSBL,
                                       Opcode::MSKBL, Opcode::ZAPNOT};
        op.op = bytes[rng.below(std::size(bytes))];
        op.lit = static_cast<std::uint8_t>(rng.below(8));
        break;
      }
      case OpKind::Count: {
        static const Opcode counts[] = {Opcode::CTLZ, Opcode::CTTZ,
                                        Opcode::CTPOP};
        op.op = counts[rng.below(std::size(counts))];
        break;
      }
      case OpKind::Load:
        op.op = rng.chance(1, 2) ? Opcode::LDQ : Opcode::LDL;
        op.disp = static_cast<std::int32_t>(
            rng.below(opts.aliasSlots ? opts.aliasSlots : 1)) * 8;
        break;
      case OpKind::Store:
        op.op = rng.chance(1, 2) ? Opcode::STQ : Opcode::STL;
        op.disp = static_cast<std::int32_t>(
            rng.below(opts.aliasSlots ? opts.aliasSlots : 1)) * 8;
        break;
      case OpKind::Branch: {
        static const Opcode brs[] = {Opcode::BEQ, Opcode::BNE,
                                     Opcode::BLT, Opcode::BGE,
                                     Opcode::BLBS, Opcode::BLBC};
        op.op = brs[rng.below(std::size(brs))];
        op.skip = static_cast<std::uint8_t>(1 + rng.below(4));
        break;
      }
      case OpKind::Mul:
        op.op = Opcode::MULQ;
        op.lit = static_cast<std::uint8_t>(rng.below(256));
        break;
      case OpKind::Lda:
      default:
        op.kind = OpKind::Lda;
        op.op = Opcode::LDA;
        op.disp = static_cast<std::int32_t>(rng.range(-512, 511));
        break;
    }
    return op;
}

/** Range draw helper tolerating min > max. */
unsigned
drawRange(Rng &rng, unsigned lo, unsigned hi)
{
    if (hi < lo)
        hi = lo;
    return lo + static_cast<unsigned>(rng.below(hi - lo + 1));
}

/**
 * Bridge a workload-generator op stream into recipe body ops. Key
 * accesses hit the fuzz sandbox at the drawn key's slot (so the
 * configured key-popularity skew shapes the aliasing pattern), compute
 * bursts become the matching serial chains on one temp, chases become
 * dependent load->use pairs, branches keep their drawn spacing. The
 * bridge stops at `target` body ops; a too-short stream is padded with
 * the weighted mix.
 */
void
bridgeStream(std::vector<BodyOp> &body, Rng &rng, const GenOptions &opts,
             unsigned target)
{
    gen::GenConfig cfg = opts.stream;
    cfg.streamOps = target; // at least one body op per abstract op
    auto workload = gen::makeWorkloadGen(cfg.family);
    workload->load(cfg, rng.next());

    // 16-bit load/store displacements bound the addressable key window.
    const std::uint64_t slots =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(cfg.numKeys,
                                                           4096));
    auto slotDisp = [&](std::uint64_t key) {
        return static_cast<std::int32_t>((key % slots) * 8);
    };
    auto memOp = [&](OpKind kind, Opcode opc, std::int32_t disp) {
        BodyOp op;
        op.kind = kind;
        op.op = opc;
        op.a = randTemp(rng);
        op.c = randTemp(rng);
        op.disp = disp;
        return op;
    };
    auto aluOp = [&](OpKind kind, Opcode opc, std::uint8_t a,
                     std::uint8_t b, std::uint8_t c, std::uint8_t lit) {
        BodyOp op;
        op.kind = kind;
        op.op = opc;
        op.a = a;
        op.b = b;
        op.c = c;
        op.lit = lit;
        return op;
    };

    gen::WorkloadOp wop;
    while (body.size() < target && workload->next(wop)) {
        switch (wop.kind) {
          case gen::WorkloadOp::Kind::KeyRead:
            body.push_back(
                memOp(OpKind::Load, Opcode::LDQ, slotDisp(wop.key)));
            break;
          case gen::WorkloadOp::Kind::KeyUpdate:
            body.push_back(
                memOp(OpKind::Store, Opcode::STQ, slotDisp(wop.key)));
            break;
          case gen::WorkloadOp::Kind::KeyRmw: {
            const std::int32_t disp = slotDisp(wop.key);
            const std::uint8_t t = randTemp(rng);
            BodyOp ld = memOp(OpKind::Load, Opcode::LDQ, disp);
            ld.c = t;
            body.push_back(ld);
            body.push_back(
                aluOp(OpKind::Arith, Opcode::ADDQ, t, t, t, 0));
            BodyOp st = memOp(OpKind::Store, Opcode::STQ, disp);
            st.a = t;
            body.push_back(st);
            break;
          }
          case gen::WorkloadOp::Kind::KeyScan:
            for (unsigned s = 0; s < std::max(1u, wop.len) &&
                                 body.size() < target + 8;
                 ++s) {
                body.push_back(memOp(
                    OpKind::Load, Opcode::LDQ,
                    slotDisp(wop.key + s)));
            }
            break;
          case gen::WorkloadOp::Kind::PointerChase:
            // No dependent addressing in the sandbox; approximate the
            // serial dependence with load -> use chains on one temp.
            for (unsigned s = 0; s < std::max(1u, wop.len) &&
                                 body.size() < target + 8;
                 ++s) {
                const std::uint8_t t = randTemp(rng);
                BodyOp ld = memOp(
                    OpKind::Load, Opcode::LDQ,
                    static_cast<std::int32_t>(rng.below(slots) * 8));
                ld.c = t;
                body.push_back(ld);
                body.push_back(
                    aluOp(OpKind::Arith, Opcode::ADDQ, t, t, t, 0));
            }
            break;
          case gen::WorkloadOp::Kind::Compute: {
            const std::uint8_t t = randTemp(rng);
            const std::uint8_t u = randTemp(rng);
            for (unsigned s = 0; s < std::max(1u, wop.len) &&
                                 body.size() < target + 8;
                 ++s) {
                if (wop.rb) {
                    // The Table 3 worst case: SLL (5-cycle TC
                    // conversion) feeding a logical, serially.
                    body.push_back(aluOp(
                        OpKind::Shift, Opcode::SLL, t, t, u,
                        static_cast<std::uint8_t>(1 + rng.below(23))));
                    body.push_back(aluOp(OpKind::Logical,
                                         s % 4 == 3 ? Opcode::BIS
                                                    : Opcode::XOR,
                                         t, u, t, 0));
                } else {
                    body.push_back(aluOp(OpKind::Arith, Opcode::ADDQ, t,
                                         u, t, 0));
                }
            }
            break;
          }
          case gen::WorkloadOp::Kind::Branch:
          default: {
            BodyOp op;
            op.kind = OpKind::Branch;
            static const Opcode brs[] = {Opcode::BEQ, Opcode::BNE,
                                         Opcode::BLT, Opcode::BGE,
                                         Opcode::BLBS, Opcode::BLBC};
            op.op = brs[rng.below(std::size(brs))];
            op.a = randTemp(rng);
            op.skip = static_cast<std::uint8_t>(1 + rng.below(4));
            body.push_back(op);
            break;
          }
        }
    }
    while (body.size() < target)
        body.push_back(drawOp(rng, opts));
}

} // namespace

ProgRecipe
generateRecipe(Rng &rng, const GenOptions &opts)
{
    ProgRecipe r;
    r.initVals.resize(fuzzLastTemp - fuzzFirstTemp + 1);
    for (std::int64_t &v : r.initVals)
        v = static_cast<std::int64_t>(rng.next());
    r.sandboxInit.resize(opts.sandboxWords);
    for (Word &w : r.sandboxInit)
        w = rng.next();
    r.loopTrips = drawRange(rng, opts.minTrips, opts.maxTrips);

    const unsigned body_len = drawRange(rng, opts.minBody, opts.maxBody);
    r.body.reserve(body_len);
    if (opts.useStream)
        bridgeStream(r.body, rng, opts, body_len);
    else
        for (unsigned i = 0; i < body_len; ++i)
            r.body.push_back(drawOp(rng, opts));

    r.subs.resize(opts.numSubs);
    for (SubRecipe &sub : r.subs) {
        const unsigned len = 3 + static_cast<unsigned>(rng.below(4));
        for (unsigned i = 0; i < len; ++i)
            sub.ops.push_back(drawOp(rng, opts));
    }
    r.hasCall = !r.subs.empty();
    if (r.hasCall) {
        r.callSub = static_cast<std::uint8_t>(rng.below(r.subs.size()));
        r.callAt = static_cast<unsigned>(rng.below(body_len));
    }
    r.hasJumpTable = opts.jumpTable;
    if (r.hasJumpTable) {
        r.jtabAt = static_cast<unsigned>(rng.below(body_len));
        r.jtabReg = randTemp(rng);
    }
    r.foldStores = 8;
    return r;
}

namespace
{

/** Lowering context for one straight-line op stream (body or sub). */
struct PendingBinds
{
    CodeBuilder &cb;
    std::vector<std::pair<Label, unsigned>> pending; // label, ops left

    explicit PendingBinds(CodeBuilder &builder) : cb(builder) {}

    void
    afterOp()
    {
        // Count down every pending forward branch and bind the expiring
        // targets (LIFO order is irrelevant; labels are independent).
        std::vector<std::pair<Label, unsigned>> keep;
        for (auto &[label, left] : pending) {
            if (left <= 1)
                cb.bind(label);
            else
                keep.emplace_back(label, left - 1);
        }
        pending = std::move(keep);
    }

    void
    bindAll()
    {
        for (auto &[label, left] : pending)
            cb.bind(label);
        pending.clear();
    }
};

void
emitBodyOp(CodeBuilder &cb, const BodyOp &op, PendingBinds &binds)
{
    const Reg a = R(op.a);
    const Reg b = R(op.b);
    const Reg c = R(op.c);
    switch (op.kind) {
      case OpKind::Arith:
      case OpKind::Logical:
      case OpKind::Compare:
      case OpKind::Cmov:
        cb.op3(op.op, a, b, c);
        break;
      case OpKind::Shift:
      case OpKind::Byte:
      case OpKind::Mul:
        cb.opi(op.op, a, op.lit, c);
        break;
      case OpKind::Count:
        cb.op1(op.op, a, c);
        break;
      case OpKind::Load:
        cb.load(op.op, c, op.disp, R(21));
        break;
      case OpKind::Store:
        cb.store(op.op, a, op.disp, R(21));
        break;
      case OpKind::Branch: {
        const Label skip = cb.newLabel();
        cb.branch(op.op, a, skip);
        binds.pending.emplace_back(skip, op.skip ? op.skip : 1);
        return; // a branch is not an op its own pending counters see
      }
      case OpKind::Lda:
      default:
        cb.lda(c, op.disp, b);
        break;
    }
    binds.afterOp();
}

bool
usesMemory(const ProgRecipe &r)
{
    if (r.foldStores > 0)
        return true;
    auto scan = [](const std::vector<BodyOp> &ops) {
        for (const BodyOp &op : ops) {
            if (op.kind == OpKind::Load || op.kind == OpKind::Store)
                return true;
        }
        return false;
    };
    if (scan(r.body))
        return true;
    if (r.hasCall) {
        for (const SubRecipe &sub : r.subs) {
            if (scan(sub.ops))
                return true;
        }
    }
    return false;
}

/** Which temp registers any op mentions (sources or destinations). */
std::array<bool, fuzzLastTemp + 1>
mentionedTemps(const ProgRecipe &r)
{
    std::array<bool, fuzzLastTemp + 1> used{};
    auto mark = [&used](std::uint8_t reg) {
        if (reg >= fuzzFirstTemp && reg <= fuzzLastTemp)
            used[reg] = true;
    };
    auto scan = [&](const std::vector<BodyOp> &ops) {
        for (const BodyOp &op : ops) {
            mark(op.a);
            mark(op.b);
            mark(op.c);
        }
    };
    scan(r.body);
    if (r.hasCall) {
        for (const SubRecipe &sub : r.subs)
            scan(sub.ops);
    }
    if (r.hasJumpTable) {
        mark(r.jtabReg);
        // The jump-table cases touch r1/r2.
        used[1] = used[2] = true;
    }
    return used;
}

} // namespace

Program
lowerRecipe(const ProgRecipe &recipe)
{
    CodeBuilder cb(recipe.name);
    if (!recipe.sandboxInit.empty())
        cb.dataWords(fuzzSandboxBase, recipe.sandboxInit);

    const bool has_call = recipe.hasCall && !recipe.subs.empty() &&
                          recipe.callSub < recipe.subs.size();
    const bool need_mem = usesMemory(recipe);
    const bool counted = recipe.loopTrips > 1;

    // Leaf subroutines first (skipped over), only when actually called.
    std::vector<Label> sub_labels;
    if (has_call) {
        const Label past_subs = cb.newLabel();
        cb.br(past_subs);
        for (const SubRecipe &sub : recipe.subs) {
            sub_labels.push_back(cb.newLabel());
            cb.bind(sub_labels.back());
            PendingBinds binds(cb);
            for (const BodyOp &op : sub.ops)
                emitBodyOp(cb, op, binds);
            binds.bindAll();
            cb.ret(R(26));
        }
        cb.bind(past_subs);
    }

    // Initialize only the registers the program mentions, so shrunk
    // repros stay minimal.
    const auto used = mentionedTemps(recipe);
    for (unsigned r = fuzzFirstTemp; r <= fuzzLastTemp; ++r) {
        if (!used[r])
            continue;
        const std::size_t idx = r - fuzzFirstTemp;
        cb.ldiq(R(r), idx < recipe.initVals.size()
                          ? recipe.initVals[idx] : 0);
    }
    if (need_mem)
        cb.ldiq(R(21), static_cast<std::int64_t>(fuzzSandboxBase));
    if (counted)
        cb.ldiq(R(22), static_cast<std::int64_t>(recipe.loopTrips));
    if (recipe.hasJumpTable)
        cb.ldiq(R(23), static_cast<std::int64_t>(fuzzJtabBase));

    const Label loop = cb.newLabel();
    if (counted)
        cb.bind(loop);

    std::array<Label, 2> cases{};
    const unsigned call_at =
        std::min<unsigned>(recipe.callAt,
                           static_cast<unsigned>(recipe.body.size()));
    const unsigned jtab_at =
        std::min<unsigned>(recipe.jtabAt,
                           static_cast<unsigned>(recipe.body.size()));

    PendingBinds binds(cb);
    for (unsigned i = 0; i <= recipe.body.size(); ++i) {
        if (has_call && i == call_at)
            cb.bsr(R(26), sub_labels[recipe.callSub]);
        if (recipe.hasJumpTable && i == jtab_at) {
            // Data-dependent two-way jump table (BTB-predicted). No
            // branches may jump into the cases.
            binds.bindAll();
            cases[0] = cb.newLabel();
            cases[1] = cb.newLabel();
            const Label merge = cb.newLabel();
            cb.opi(Opcode::AND, R(recipe.jtabReg), 1, R(24));
            cb.op3(Opcode::S8ADDQ, R(24), R(23), R(24));
            cb.load(Opcode::LDQ, R(24), 0, R(24));
            cb.jmp(R(25), R(24));
            cb.bind(cases[0]);
            cb.opi(Opcode::ADDQ, R(1), 1, R(1));
            cb.br(merge);
            cb.bind(cases[1]);
            cb.opi(Opcode::XOR, R(2), 255, R(2));
            cb.bind(merge);
        }
        if (i < recipe.body.size())
            emitBodyOp(cb, recipe.body[i], binds);
    }
    binds.bindAll();

    // Fold live state into the sandbox so everything is observable.
    const unsigned folds = std::min<unsigned>(recipe.foldStores, 8);
    for (unsigned r = fuzzFirstTemp; r < fuzzFirstTemp + folds; ++r) {
        cb.store(Opcode::STQ, R(r),
                 static_cast<std::int32_t>((r - fuzzFirstTemp) * 8),
                 R(21));
    }
    if (counted) {
        cb.opi(Opcode::SUBQ, R(22), 1, R(22));
        cb.branch(Opcode::BNE, R(22), loop);
    }
    cb.halt();

    if (recipe.hasJumpTable) {
        cb.dataWords(fuzzJtabBase, {cb.labelByteAddr(cases[0]),
                                    cb.labelByteAddr(cases[1])});
    }
    return cb.finish();
}

Program
generateProgram(std::uint64_t seed, const GenOptions &opts)
{
    Rng rng(seed);
    ProgRecipe recipe = generateRecipe(rng, opts);
    recipe.name = "fuzz-" + std::to_string(seed);
    return lowerRecipe(recipe);
}

MachineConfig
randomConfig(Rng &rng)
{
    const MachineKind kind = static_cast<MachineKind>(rng.below(4));
    const unsigned width = rng.chance(1, 2) ? 4 : 8;

    MachineConfig cfg;
    if (kind == MachineKind::Ideal && rng.chance(1, 2)) {
        // Figure 14 space: any non-full bypass-level mask.
        cfg = MachineConfig::makeIdealLimited(
            width, static_cast<std::uint8_t>(1 + rng.below(6)));
    } else {
        cfg = MachineConfig::make(kind, width);
    }

    const bool is_rb = kind == MachineKind::RbLimited ||
                       kind == MachineKind::RbFull;
    if (is_rb && rng.chance(1, 4))
        cfg.holeAwareScheduling = false;
    switch (rng.below(4)) {
      case 2:
        cfg.steering = Steering::DependenceAware;
        break;
      case 3:
        if (is_rb)
            cfg.steering = Steering::ClassPartition;
        break;
      default:
        break;
    }

    // Descriptive label so differential failures name the variant.
    cfg.label += "/w" + std::to_string(width);
    if (!cfg.holeAwareScheduling)
        cfg.label += "/noholes";
    if (cfg.steering == Steering::DependenceAware)
        cfg.label += "/depsteer";
    else if (cfg.steering == Steering::ClassPartition)
        cfg.label += "/classpart";
    return cfg;
}

std::vector<MachineConfig>
randomConfigSet(Rng &rng)
{
    std::vector<MachineConfig> out;
    // The Baseline machine is the pure two's-complement datapath — the
    // natural golden reference for cross-machine state comparison.
    out.push_back(MachineConfig::make(MachineKind::Baseline,
                                      rng.chance(1, 2) ? 4 : 8));
    const unsigned extra = 1 + static_cast<unsigned>(rng.below(4));
    for (unsigned i = 0; i < extra; ++i)
        out.push_back(randomConfig(rng));
    return out;
}

} // namespace rbsim::fuzz

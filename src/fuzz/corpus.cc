#include "fuzz/corpus.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "fuzz/generator.hh"
#include "isa/assembler.hh"

namespace rbsim::fuzz
{

namespace
{

constexpr const char *metaPrefix = "; rbsim-repro-";

/** One-line form of a note (details never need embedded newlines). */
std::string
flatten(const std::string &s)
{
    std::string out = s;
    std::replace(out.begin(), out.end(), '\n', ' ');
    return out;
}

} // namespace

std::string
configToJson(const MachineConfig &cfg)
{
    Json j = Json::object();
    j["kind"] = Json(machineName(cfg.kind));
    j["width"] = Json(cfg.width);
    j["bypassMask"] = Json(static_cast<unsigned>(cfg.bypassLevelMask));
    j["holeAware"] = Json(cfg.holeAwareScheduling);
    j["steering"] = Json(steeringName(cfg.steering));
    j["label"] = Json(cfg.label);
    return j.dump();
}

MachineConfig
configFromJson(const std::string &text)
{
    const Json j = Json::parse(text);
    // A config line from another build fails this repro alone, never
    // an assertion that ends the whole replay batch.
    if (!j.isObject())
        throw std::invalid_argument("config must be a JSON object");
    for (const auto &[key, v] : j.items()) {
        if (key != "kind" && key != "width" && key != "bypassMask" &&
            key != "holeAware" && key != "steering" && key != "label")
            throw std::invalid_argument("unknown config key '" + key +
                                        "'");
    }
    auto str = [&j](const char *key, const std::string &dflt) {
        const Json *v = j.find(key);
        return v ? v->asString() : dflt;
    };

    const std::string kind_name = str("kind", "Ideal");
    const std::optional<MachineKind> kind = machineKindFromName(kind_name);
    if (!kind)
        throw std::invalid_argument("unknown machine kind '" + kind_name +
                                    "'");
    const std::uint64_t width =
        j.find("width") ? j.find("width")->asU64() : 8;
    if (width != 4 && width != 8 && width != 16)
        throw std::invalid_argument("config width " +
                                    std::to_string(width) +
                                    " is not 4, 8, or 16");
    MachineConfig cfg =
        MachineConfig::make(*kind, static_cast<unsigned>(width));
    if (const Json *v = j.find("bypassMask")) {
        if (v->asU64() > 0b111)
            throw std::invalid_argument("config bypassMask " +
                                        std::to_string(v->asU64()) +
                                        " is above 7");
        cfg.bypassLevelMask = static_cast<std::uint8_t>(v->asU64());
    }
    if (const Json *v = j.find("holeAware"))
        cfg.holeAwareScheduling = v->asBool();
    const std::string steering = str("steering", "rr-pairs");
    const std::optional<Steering> s = steeringFromName(steering);
    if (!s)
        throw std::invalid_argument("unknown steering '" + steering + "'");
    cfg.steering = *s;
    cfg.label = str("label", cfg.label);
    return cfg;
}

std::string
formatRepro(const ReproFile &repro)
{
    std::ostringstream os;
    os << metaPrefix << "oracle: " << repro.oracle << "\n";
    os << metaPrefix << "seed: " << repro.seed << "\n";
    if (repro.valueIters)
        os << metaPrefix << "iters: " << repro.valueIters << "\n";
    if (!repro.note.empty())
        os << metaPrefix << "note: " << flatten(repro.note) << "\n";
    if (!repro.genJson.empty())
        os << metaPrefix << "gen: " << flatten(repro.genJson) << "\n";
    if (repro.maxInsts)
        os << metaPrefix << "max-insts: " << repro.maxInsts << "\n";
    if (repro.resumeSkip)
        os << metaPrefix << "resume-skip: " << repro.resumeSkip << "\n";
    for (const MachineConfig &cfg : repro.configs)
        os << metaPrefix << "config: " << configToJson(cfg) << "\n";
    if (!repro.asmText.empty()) {
        os << "\n" << repro.asmText;
        if (repro.asmText.back() != '\n')
            os << "\n";
    }
    return os.str();
}

ReproFile
parseRepro(const std::string &text)
{
    ReproFile out;
    bool have_oracle = false;
    std::string body;

    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind(metaPrefix, 0) != 0) {
            body += line;
            body += "\n";
            continue;
        }
        const std::string rest = line.substr(std::string(metaPrefix).size());
        const std::size_t colon = rest.find(": ");
        if (colon == std::string::npos) {
            throw std::invalid_argument("malformed repro metadata line: " +
                                        line);
        }
        const std::string key = rest.substr(0, colon);
        const std::string val = rest.substr(colon + 2);
        if (key == "oracle") {
            out.oracle = val;
            have_oracle = true;
        } else if (key == "seed") {
            out.seed = std::stoull(val, nullptr, 0);
        } else if (key == "iters") {
            out.valueIters = std::stoull(val, nullptr, 0);
        } else if (key == "note") {
            out.note = val;
        } else if (key == "gen") {
            // Validate eagerly: a malformed gen line should fail the
            // parse, not the eventual re-generation.
            genOptionsFromJson(Json::parse(val));
            out.genJson = val;
        } else if (key == "max-insts") {
            out.maxInsts = std::stoull(val, nullptr, 0);
        } else if (key == "resume-skip") {
            out.resumeSkip = std::stoull(val, nullptr, 0);
        } else if (key == "config") {
            out.configs.push_back(configFromJson(val));
        } else {
            throw std::invalid_argument("unknown repro metadata key '" +
                                        key + "'");
        }
    }
    if (!have_oracle)
        throw std::invalid_argument("repro has no oracle line");

    // Keep the body only when it contains actual source.
    if (body.find_first_not_of(" \t\n") != std::string::npos)
        out.asmText = body;
    return out;
}

ReproFile
loadRepro(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open repro file " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return parseRepro(os.str());
}

std::string
writeRepro(const std::string &dir, const std::string &stem,
           const ReproFile &repro)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + stem + ".repro";
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write repro file " + path);
    out << formatRepro(repro);
    return path;
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".repro")
            out.push_back(entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

OracleResult
replayRepro(const ReproFile &repro, Plant plant, const TraceSpec &spec)
{
    // Validate the oracle name up front so a corpus file written by a
    // newer build fails loudly with a diagnostic instead of throwing
    // out of the replay loop (or, worse, passing vacuously).
    const std::vector<std::string> known = oracleNames();
    if (std::find(known.begin(), known.end(), repro.oracle) ==
        known.end()) {
        std::string names;
        for (const std::string &n : known)
            names += (names.empty() ? "" : ", ") + n;
        return {true, "unknown oracle '" + repro.oracle +
                    "' — is this repro from a newer build? known "
                    "oracles: " + names};
    }
    const auto oracles = makeOracles({repro.oracle}, plant, spec);
    Oracle &oracle = *oracles.front();
    if (repro.maxInsts || repro.resumeSkip)
        oracle.setRunLimits(repro.maxInsts, repro.resumeSkip);
    if (repro.programLevel()) {
        if (!oracle.programLevel()) {
            return {true, repro.oracle +
                        ": repro has a program but the oracle is "
                        "value-level"};
        }
        return oracle.runProgram(assemble(repro.asmText), repro.configs);
    }
    if (oracle.programLevel()) {
        return {true, repro.oracle +
                    ": repro has no program but the oracle is "
                    "program-level"};
    }
    return oracle.runSeed(repro.seed,
                          repro.valueIters ? repro.valueIters : 4096);
}

OracleResult
replayReproFile(const std::string &path, Plant plant, const TraceSpec &spec)
{
    try {
        return replayRepro(loadRepro(path), plant, spec);
    } catch (const std::exception &e) {
        return {true, e.what()};
    }
}

} // namespace rbsim::fuzz

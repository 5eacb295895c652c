#include "service/request_parse.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "support/diagnostics.h"

namespace mdes::service {

namespace {

std::string
readFileOrThrow(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw MdesError("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Transform-pass names for transforms=; keep in sync with
 * PipelineConfig. */
struct PassName
{
    const char *name;
    bool PipelineConfig::*field;
};

constexpr PassName kPassNames[] = {
    {"cse", &PipelineConfig::cse},
    {"redundant", &PipelineConfig::redundant_options},
    {"minimize", &PipelineConfig::minimize},
    {"timeshift", &PipelineConfig::time_shift},
    {"sortusages", &PipelineConfig::sort_usages},
    {"hoist", &PipelineConfig::hoist},
    {"sortor", &PipelineConfig::sort_or_trees},
};

PipelineConfig
parseTransforms(const std::string &value, int lineno)
{
    if (value == "all")
        return PipelineConfig::all();
    PipelineConfig config = PipelineConfig::none();
    if (value == "none")
        return config;
    std::istringstream fields(value);
    std::string field;
    while (std::getline(fields, field, ',')) {
        bool known = false;
        for (const auto &pass : kPassNames) {
            if (field == pass.name) {
                config.*(pass.field) = true;
                known = true;
                break;
            }
        }
        if (!known)
            throw MdesError("request line " + std::to_string(lineno) +
                            ": unknown transform '" + field + "'");
    }
    return config;
}

} // namespace

ScheduleRequest
parseRequestLine(const std::string &line, int lineno,
                 const RequestParseOptions &opts)
{
    ScheduleRequest req;
    std::istringstream in(line);
    std::string token;
    auto bad = [&](const std::string &what) {
        throw MdesError("request line " + std::to_string(lineno) + ": " +
                        what);
    };
    auto number = [&](const std::string &key, const std::string &value) {
        uint64_t v = 0;
        auto [end, ec] =
            std::from_chars(value.data(), value.data() + value.size(), v);
        if (ec != std::errc() || end != value.data() + value.size())
            bad("bad number " + key + "='" + value + "'");
        return v;
    };
    auto file = [&](const std::string &key, const std::string &value) {
        if (!opts.allow_files)
            bad(key + "= names a file, which this surface does not "
                      "accept (inline requests only)");
        return readFileOrThrow(value);
    };
    while (in >> token) {
        std::string key = token, value;
        if (size_t eq = token.find('='); eq != std::string::npos) {
            key = token.substr(0, eq);
            value = token.substr(eq + 1);
        }
        if (key == "machine") {
            req.machine = value;
        } else if (key == "source") {
            req.source = file(key, value);
        } else if (key == "sasm") {
            req.sasm = file(key, value);
        } else if (key == "sched") {
            std::optional<SchedulerKind> kind = parseSchedulerKind(value);
            if (!kind)
                bad("unknown scheduler '" + value + "'");
            req.scheduler = *kind;
        } else if (key == "ops") {
            req.synth_ops = number(key, value);
        } else if (key == "seed") {
            req.seed = number(key, value);
        } else if (key == "deadline_ms") {
            req.deadline_ms = int64_t(number(key, value));
        } else if (key == "exact_ms") {
            req.exact_ms = int64_t(number(key, value));
        } else if (key == "exact_nodes") {
            req.exact_nodes = number(key, value);
        } else if (key == "transforms") {
            req.transforms = parseTransforms(value, lineno);
        } else if (key == "verify") {
            req.verify = true;
        } else if (key == "no-optimize") {
            req.transforms = PipelineConfig::none();
        } else if (key == "no-bit-vector") {
            req.bit_vector = false;
        } else {
            bad("unknown key '" + key + "'");
        }
    }
    if (req.machine.empty() && req.source.empty())
        bad("needs machine= or source=");
    return req;
}

ParsedRequests
parseRequestText(const std::string &text, const RequestParseOptions &opts)
{
    ParsedRequests out;
    std::istringstream lines(text);
    std::string line;
    int lineno = 0;
    while (std::getline(lines, line)) {
        ++lineno;
        if (size_t hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        size_t last = line.find_last_not_of(" \t\r");
        line = line.substr(first, last - first + 1);
        out.requests.push_back(parseRequestLine(line, lineno, opts));
        out.lines.push_back(line);
        out.linenos.push_back(lineno);
    }
    return out;
}

namespace {

/** True when two pipeline configs select the same passes/direction. */
bool
sameTransforms(const PipelineConfig &a, const PipelineConfig &b)
{
    for (const auto &pass : kPassNames)
        if (a.*(pass.field) != b.*(pass.field))
            return false;
    return a.direction == b.direction;
}

} // namespace

std::string
renderRequestLine(const ScheduleRequest &req)
{
    if (!req.source.empty() || !req.sasm.empty())
        throw MdesError("renderRequestLine: inline source/sasm text has "
                        "no request-line form (the grammar's source=/"
                        "sasm= name files)");
    if (req.machine.empty())
        throw MdesError("renderRequestLine: request names no machine");
    std::ostringstream out;
    out << "machine=" << req.machine;
    if (req.scheduler != SchedulerKind::List)
        out << " sched=" << schedulerKindName(req.scheduler);
    if (req.synth_ops)
        out << " ops=" << req.synth_ops;
    if (req.seed)
        out << " seed=" << req.seed;
    if (req.deadline_ms)
        out << " deadline_ms=" << req.deadline_ms;
    if (req.exact_ms != ScheduleRequest{}.exact_ms)
        out << " exact_ms=" << req.exact_ms;
    if (req.exact_nodes)
        out << " exact_nodes=" << req.exact_nodes;
    if (!sameTransforms(req.transforms, PipelineConfig::all())) {
        out << " transforms=";
        bool any = false;
        for (const auto &pass : kPassNames) {
            if (req.transforms.*(pass.field)) {
                out << (any ? "," : "") << pass.name;
                any = true;
            }
        }
        if (!any)
            out << "none";
    }
    if (!req.bit_vector)
        out << " no-bit-vector";
    if (req.verify)
        out << " verify";
    return out.str();
}

} // namespace mdes::service

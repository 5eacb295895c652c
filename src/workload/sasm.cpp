#include "workload/sasm.h"

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

namespace mdes::workload {

namespace {

/** One whitespace-separated token with its column. */
struct Word
{
    std::string text;
    int column;
};

/** Split a line into words, stripping '#' and ';' comments. */
std::vector<Word>
splitLine(const std::string &line)
{
    std::vector<Word> words;
    size_t i = 0;
    while (i < line.size()) {
        char c = line[i];
        if (c == '#' || c == ';')
            break;
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        size_t start = i;
        // Commas separate register lists; keep them as their own words
        // so "r1,r2" and "r1, r2" parse alike.
        if (c == ',') {
            words.push_back({",", int(start) + 1});
            ++i;
            continue;
        }
        while (i < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[i])) &&
               line[i] != ',' && line[i] != '#' && line[i] != ';') {
            ++i;
        }
        words.push_back({line.substr(start, i - start), int(start) + 1});
    }
    return words;
}

/** Parse r<N>; returns -1 on failure. */
int32_t
parseReg(const std::string &text)
{
    if (text.size() < 2 || (text[0] != 'r' && text[0] != 'R'))
        return -1;
    int32_t value = 0;
    for (size_t i = 1; i < text.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(text[i])))
            return -1;
        value = value * 10 + (text[i] - '0');
        if (value > 100000)
            return -1;
    }
    return value;
}

} // namespace

sched::Program
parseSasm(std::string_view text, const lmdes::LowMdes &low,
          DiagnosticEngine &diags)
{
    sched::ProgramBuilder builder;
    bool in_block = false;
    // The open block's last instruction is a branch.
    bool after_branch = false;
    // One instruction's operands. The text names the dsts first; they
    // are staged so the pool can take srcs, then dsts.
    std::vector<int32_t> srcs, dsts;

    std::istringstream stream{std::string(text)};
    std::string line;
    int line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        auto words = splitLine(line);
        if (words.empty())
            continue;
        SourceLocation loc{line_no, words[0].column};

        if (words[0].text == "block") {
            if (in_block) {
                diags.error(loc, "nested 'block' (missing 'end'?)");
                continue;
            }
            if (words.size() > 1) {
                diags.error({line_no, words[1].column},
                            "unexpected text after 'block'");
            }
            in_block = true;
            after_branch = false;
            continue;
        }
        if (words[0].text == "end") {
            if (!in_block) {
                diags.error(loc, "'end' without 'block'");
                continue;
            }
            if (builder.openOps() == 0)
                diags.error(loc, "empty block");
            builder.endBlock();
            in_block = false;
            continue;
        }
        if (!in_block) {
            diags.error(loc, "instruction outside block/end");
            continue;
        }

        // OPCODE [dsts] '<-' [srcs] [!flags]
        uint32_t cls = low.findOpClass(words[0].text);
        if (cls == kInvalidId) {
            diags.error(loc, "unknown operation '" + words[0].text +
                                 "' for machine '" + low.machineName() +
                                 "'");
            continue;
        }
        bool cascadable = false;
        bool is_branch = false;
        srcs.clear();
        dsts.clear();

        size_t w = 1;
        bool seen_arrow = false;
        bool bad = false;
        while (w < words.size() && !bad) {
            const Word &word = words[w];
            if (word.text == ",") {
                ++w;
                continue;
            }
            if (word.text == "<-") {
                if (seen_arrow) {
                    diags.error({line_no, word.column},
                                "duplicate '<-'");
                    bad = true;
                }
                seen_arrow = true;
                ++w;
                continue;
            }
            if (word.text == "!cascade") {
                cascadable = true;
                ++w;
                continue;
            }
            if (word.text == "!branch") {
                is_branch = true;
                ++w;
                continue;
            }
            int32_t reg = parseReg(word.text);
            if (reg < 0) {
                diags.error({line_no, word.column},
                            "expected register (r<N>), '<-' or flag, "
                            "found '" +
                                word.text + "'");
                bad = true;
                break;
            }
            (seen_arrow ? srcs : dsts).push_back(reg);
            ++w;
        }
        if (bad)
            continue;
        if (!seen_arrow) {
            diags.error(loc, "instruction is missing '<-'");
            continue;
        }
        if (is_branch && after_branch) {
            diags.error(loc, "block already has a branch");
            continue;
        }
        if (after_branch)
            diags.error(loc, "branch before the end of its block");
        if (cascadable &&
            low.opClasses()[cls].cascade_tree == kInvalidId) {
            diags.warning(loc, "operation '" + words[0].text +
                                   "' has no cascade table; !cascade "
                                   "ignored");
            cascadable = false;
        }
        builder.add(cls, srcs, dsts, cascadable, is_branch);
        after_branch = is_branch;
    }
    if (in_block)
        diags.error({line_no, 1}, "unterminated block at end of file");
    return builder.finish();
}

sched::Program
parseSasmOrThrow(std::string_view text, const lmdes::LowMdes &low)
{
    DiagnosticEngine diags;
    sched::Program program = parseSasm(text, low, diags);
    if (diags.hasErrors())
        throw MdesError("sasm parse failed:\n" + diags.toString());
    return program;
}

std::string
formatSasm(const sched::Program &program, const lmdes::LowMdes &low)
{
    std::ostringstream os;
    for (const auto &block : program.blocks) {
        os << "block\n";
        for (const auto &instr : block.instrs) {
            os << "    " << low.opClasses()[instr.op_class].name << " ";
            for (size_t d = 0; d < instr.dsts.size(); ++d)
                os << (d ? ", " : "") << "r" << instr.dsts[d];
            os << (instr.dsts.empty() ? "<-" : " <-");
            for (size_t s = 0; s < instr.srcs.size(); ++s)
                os << (s ? "," : "") << " r" << instr.srcs[s];
            if (instr.cascadable)
                os << " !cascade";
            if (instr.is_branch)
                os << " !branch";
            os << "\n";
        }
        os << "end\n";
    }
    return os.str();
}

} // namespace mdes::workload

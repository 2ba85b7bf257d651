#include "driver/bench_args.hh"

#include <cstdint>
#include <cstring>

namespace stashsim
{

namespace
{

bool
needsValue(int i, int argc, const char *flag, std::string &err)
{
    if (i + 1 < argc)
        return true;
    err = std::string(flag) + " needs a value";
    return false;
}

/**
 * Strict whole-token base-10 unsigned parse for @p flag's value.
 *
 * strtoul-style parsing silently turned "--jobs abc" into 0 (one
 * thread per core) and "--jobs 3x" into 3; here every byte must be a
 * decimal digit and the value must fit an unsigned, or the parse
 * fails with a diagnostic naming the flag and the offending token.
 */
bool
parseUnsigned(const char *flag, const char *text, unsigned &out,
              std::string &err)
{
    constexpr std::uint64_t max = 0xffff'ffffull;
    if (*text == '\0') {
        err = std::string(flag) + ": empty value (expected a base-10 "
              "unsigned integer)";
        return false;
    }
    std::uint64_t v = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9') {
            err = std::string(flag) + ": invalid number '" + text +
                  "' (expected a base-10 unsigned integer)";
            return false;
        }
        const std::uint64_t d = std::uint64_t(*p - '0');
        if (v > (max - d) / 10) {
            err = std::string(flag) + ": value '" + text +
                  "' is out of range (max " + std::to_string(max) +
                  ")";
            return false;
        }
        v = v * 10 + d;
    }
    out = unsigned(v);
    return true;
}

} // namespace

bool
BenchArgs::parse(int argc, char **argv, BenchArgs &out,
                 std::string &err)
{
    using workloads::Scale;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--quick") == 0) {
            out.scale = Scale::Quick;
        } else if (std::strcmp(a, "--smoke") == 0) {
            out.scale = Scale::Smoke;
        } else if (std::strcmp(a, "--jobs") == 0 ||
                   std::strcmp(a, "-j") == 0) {
            if (!needsValue(i, argc, a, err))
                return false;
            if (!parseUnsigned(a, argv[++i], out.jobs, err))
                return false;
        } else if (std::strcmp(a, "--out") == 0) {
            if (!needsValue(i, argc, a, err))
                return false;
            out.outDir = argv[++i];
        } else if (std::strcmp(a, "--trace") == 0) {
            if (!needsValue(i, argc, a, err))
                return false;
            out.traceDir = argv[++i];
        } else if (std::strcmp(a, "--render-md") == 0) {
            if (!needsValue(i, argc, a, err))
                return false;
            out.renderMd = argv[++i];
        } else if (std::strcmp(a, "--components") == 0) {
            out.components = true;
        } else if (std::strcmp(a, "--restore") == 0) {
            if (!needsValue(i, argc, a, err))
                return false;
            out.restoreDir = argv[++i];
        } else if (std::strcmp(a, "--list") == 0) {
            out.list = true;
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            out.help = true;
        } else if (a[0] == '-') {
            err = std::string("unknown option: ") + a;
            return false;
        } else {
            out.benches.push_back(a);
        }
    }
    return true;
}

std::string
BenchArgs::usage(const char *prog)
{
    return std::string("usage: ") + prog +
           " [options] [bench ...]\n"
           "\n"
           "options:\n"
           "  --quick             scaled-down inputs (~4x smaller)\n"
           "  --smoke             smoke-test inputs (~16x smaller)\n"
           "  --jobs N, -j N      sweep worker threads "
           "(default: hardware)\n"
           "  --out DIR           artifact directory for "
           "BENCH_<name>.json (default: .)\n"
           "  --trace DIR         write a Chrome trace per run "
           "into DIR\n"
           "  --components        include per-component counters in "
           "the JSON\n"
           "  --restore DIR       cache each run's result in DIR and "
           "serve the valid\n"
           "                      cached results there instead of "
           "re-simulating;\n"
           "                      every other run starts from tick 0\n"
           "  --list              list benches and workloads, "
           "and exit\n"
           "  --render-md FILE    render markdown from BENCH_*.json "
           "in --out ('-' = stdout);\n"
           "                      with bench names, refreshes those "
           "artifacts first\n"
           "  --help, -h          this text\n"
           "\n"
           "With no bench names, every bench runs.\n";
}

} // namespace stashsim

#include "workloads/synthetic/trace_replay.hh"

#include <algorithm>
#include <sstream>

#include "sim/log.hh"
#include "workloads/kernel_builder.hh"

namespace stashsim
{
namespace workloads
{

namespace
{

/** Strict whole-token parse of a decimal or 0x-hex number. */
bool
parseU64(const std::string &t, std::uint64_t &out)
{
    std::size_t i = 0;
    std::uint64_t base = 10;
    if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
        base = 16;
        i = 2;
    }
    if (i >= t.size())
        return false;
    std::uint64_t v = 0;
    for (; i < t.size(); ++i) {
        const char c = t[i];
        std::uint64_t d;
        if (c >= '0' && c <= '9')
            d = std::uint64_t(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            d = std::uint64_t(c - 'a') + 10;
        else if (base == 16 && c >= 'A' && c <= 'F')
            d = std::uint64_t(c - 'A') + 10;
        else
            return false;
        if (v > (~std::uint64_t(0) - d) / base)
            return false;
        v = v * base + d;
    }
    out = v;
    return true;
}

bool
parseI32(const std::string &t, std::int32_t &out)
{
    std::string s = t;
    bool neg = false;
    if (!s.empty() && (s[0] == '+' || s[0] == '-')) {
        neg = s[0] == '-';
        s = s.substr(1);
    }
    std::uint64_t v = 0;
    if (!parseU64(s, v))
        return false;
    if (neg) {
        if (v > 0x8000'0000ull)
            return false;
        out = std::int32_t(-std::int64_t(v));
    } else {
        if (v > 0x7fff'ffffull)
            return false;
        out = std::int32_t(v);
    }
    return true;
}

/** Splits a comma-separated address list; empty items are errors. */
bool
parseAddrList(const std::string &t, std::vector<Addr> &out)
{
    out.clear();
    std::size_t start = 0;
    while (start <= t.size()) {
        const std::size_t comma = t.find(',', start);
        const std::string item =
            t.substr(start, comma == std::string::npos
                                ? std::string::npos
                                : comma - start);
        std::uint64_t v = 0;
        if (!parseU64(item, v))
            return false;
        out.push_back(v);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return !out.empty();
}

std::string
hexAddr(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

std::string
hexList(const std::vector<Addr> &addrs)
{
    std::string s;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (i)
            s += ',';
        s += hexAddr(addrs[i]);
    }
    return s;
}

/**
 * Whether the word at local offset @p a lies in the @p bytes at
 * @p lo.  Written without `a + wordBytes`, which wraps for offsets
 * near 2^64 and would pass them as covered.
 */
bool
inMap(Addr a, Addr lo, Addr bytes)
{
    return a >= lo && a - lo < bytes;
}

/** A word tile over `bytes` contiguous bytes at @p base. */
TileSpec
spanTile(Addr base, std::uint32_t words)
{
    TileSpec t;
    t.globalBase = base;
    t.fieldSize = wordBytes;
    t.objectSize = wordBytes;
    t.rowSize = words;
    t.strideSize = 0;
    t.numStrides = 1;
    t.isCoherent = true;
    return t;
}

} // namespace

std::uint64_t
TraceData::records() const
{
    std::uint64_t n = 0;
    for (const auto &p : phases) {
        for (const auto &s : p.perCu)
            n += s.size();
        for (const auto &s : p.perCore)
            n += s.size();
    }
    return n;
}

bool
parseTrace(const std::string &text, const TraceLimits &lim,
           TraceData &out, std::string &err)
{
    out = TraceData();
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    bool sawHeader = false;
    TracePhase *cur = nullptr;

    struct MapDecl
    {
        std::uint32_t lo = 0;
        std::uint32_t bytes = 0;
        bool writable = false;
    };
    std::vector<std::vector<MapDecl>> maps;

    auto fail = [&](const std::string &m) {
        err = "line " + std::to_string(lineNo) + ": " + m;
        return false;
    };

    while (std::getline(is, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::vector<std::string> tok;
        {
            std::istringstream ls(line);
            std::string t;
            while (ls >> t)
                tok.push_back(t);
        }
        if (tok.empty())
            continue;

        if (!sawHeader) {
            if (tok.size() != 2 || tok[0] != "stashtrace" ||
                tok[1] != "v1") {
                return fail("expected header 'stashtrace v1'");
            }
            sawHeader = true;
            continue;
        }

        if (tok[0] == "warmup") {
            if (cur)
                return fail("'warmup' inside a phase");
            std::uint64_t v = 0;
            if (tok.size() != 2 || !parseU64(tok[1], v) ||
                v > 1'000'000) {
                return fail("bad warmup count");
            }
            out.warmup = unsigned(v);
            continue;
        }

        if (tok[0] == "phase") {
            if (cur)
                return fail("nested 'phase'");
            TracePhase p;
            if (tok.size() == 3 && tok[1] == "gpu") {
                p.kind = Phase::Kind::Gpu;
                p.kernel = tok[2];
            } else if (tok.size() == 2 && tok[1] == "cpu") {
                p.kind = Phase::Kind::Cpu;
            } else {
                return fail(
                    "expected 'phase gpu <kernel>' or 'phase cpu'");
            }
            out.phases.push_back(std::move(p));
            cur = &out.phases.back();
            maps.assign(lim.maxCus, {});
            continue;
        }

        if (tok[0] == "endphase") {
            if (cur == nullptr)
                return fail("'endphase' outside a phase");
            if (tok.size() != 1)
                return fail("trailing tokens after 'endphase'");
            cur = nullptr;
            continue;
        }

        if (tok[0] == "cu") {
            if (!cur || cur->kind != Phase::Kind::Gpu)
                return fail("'cu' record outside a gpu phase");
            if (tok.size() < 3)
                return fail("truncated record");
            std::uint64_t id = 0;
            if (!parseU64(tok[1], id))
                return fail("bad cu id '" + tok[1] + "'");
            if (id >= lim.maxCus) {
                return fail("cu " + tok[1] +
                            " out of range (machine has " +
                            std::to_string(lim.maxCus) + " CUs)");
            }
            if (cur->perCu.size() <= id)
                cur->perCu.resize(std::size_t(id) + 1);

            const std::string &op = tok[2];
            TraceGpuOp rec;
            if (op == "compute") {
                std::uint64_t cyc = 0;
                if (tok.size() < 4 || tok.size() > 5 ||
                    !parseU64(tok[3], cyc) || cyc == 0 ||
                    cyc > 0xffff) {
                    return fail(
                        "'compute' takes <cycles 1..65535> "
                        "[<accDelta>]");
                }
                rec.kind = TraceGpuOp::Kind::Compute;
                rec.cycles = std::uint16_t(cyc);
                if (tok.size() == 5 &&
                    !parseI32(tok[4], rec.accDelta)) {
                    return fail("bad accumulator delta '" + tok[4] +
                                "'");
                }
            } else if (op == "ld" || op == "st" || op == "lld" ||
                       op == "lst") {
                const bool isStore = (op == "st" || op == "lst");
                const bool isLocal = (op == "lld" || op == "lst");
                const bool hasValue =
                    tok.size() == 6 && tok[4] == "=";
                if (!(tok.size() == 4 || (isStore && hasValue))) {
                    return fail("'" + op + "' takes <addr>[,...]" +
                                (isStore ? " [= <value>]" : ""));
                }
                if (!parseAddrList(tok[3], rec.addrs))
                    return fail("bad address list '" + tok[3] + "'");
                if (rec.addrs.size() > warpLanes) {
                    return fail("more than " + std::to_string(warpLanes) +
                                " lanes in one record");
                }
                for (Addr a : rec.addrs) {
                    if (a % wordBytes) {
                        return fail("address " + hexAddr(a) +
                                    " is not word-aligned");
                    }
                }
                if (isLocal) {
                    // Replay lowers the record onto one tile: the
                    // first map that covers its first lane.
                    auto covering = [&](Addr a) -> const MapDecl * {
                        for (const auto &mm : maps[id]) {
                            if (inMap(a, mm.lo, mm.bytes))
                                return &mm;
                        }
                        return nullptr;
                    };
                    const MapDecl *m = covering(rec.addrs[0]);
                    for (Addr a : rec.addrs) {
                        if (!covering(a)) {
                            return fail("local offset " + hexAddr(a) +
                                        " is not covered by any map");
                        }
                        if (!inMap(a, m->lo, m->bytes)) {
                            return fail("local offsets " +
                                        hexAddr(rec.addrs[0]) + " and " +
                                        hexAddr(a) +
                                        " lie in different maps");
                        }
                    }
                    if (isStore && !m->writable) {
                        return fail("lst at " + hexAddr(rec.addrs[0]) +
                                    " targets a read-only map");
                    }
                } else {
                    const Addr mn = *std::min_element(
                        rec.addrs.begin(), rec.addrs.end());
                    const Addr mx = *std::max_element(
                        rec.addrs.begin(), rec.addrs.end());
                    if (mx - mn > (Addr(1) << 28)) {
                        return fail("address spread exceeds 256 MiB "
                                    "in one record");
                    }
                }
                if (hasValue) {
                    std::uint64_t v = 0;
                    if (!parseU64(tok[5], v) || v > 0xffff'ffffull)
                        return fail("bad store value '" + tok[5] + "'");
                    rec.hasValue = true;
                    rec.value = std::uint32_t(v);
                }
                rec.kind = isLocal ? (isStore ? TraceGpuOp::Kind::Lst
                                              : TraceGpuOp::Kind::Lld)
                                   : (isStore ? TraceGpuOp::Kind::St
                                              : TraceGpuOp::Kind::Ld);
            } else if (op == "map") {
                std::uint64_t lo = 0, base = 0, bytes = 0;
                if (tok.size() != 7 || !parseU64(tok[3], lo) ||
                    !parseU64(tok[4], base) ||
                    !parseU64(tok[5], bytes)) {
                    return fail("'map' takes <localOffset> "
                                "<globalBase> <bytes> ro|rw");
                }
                if (lo % wordBytes || base % wordBytes ||
                    bytes == 0 || bytes % wordBytes) {
                    return fail("map geometry must be word-aligned "
                                "and non-empty");
                }
                // The stash requires chunk-aligned local bases;
                // demand it up front so a trace replays under every
                // organization.
                if (lo % 64) {
                    return fail("map local offset must be 64-byte "
                                "aligned");
                }
                if (lo + bytes > lim.localBytes) {
                    return fail(
                        "map exceeds the " +
                        std::to_string(lim.localBytes) +
                        "-byte local space");
                }
                if (tok[6] == "rw")
                    rec.writable = true;
                else if (tok[6] != "ro")
                    return fail("map mode must be 'ro' or 'rw'");
                if (maps[id].size() >= blockMapSlots) {
                    return fail("more than " +
                                std::to_string(blockMapSlots) +
                                " maps for cu " + tok[1] + " in one phase");
                }
                rec.kind = TraceGpuOp::Kind::Map;
                rec.localOffset = std::uint32_t(lo);
                rec.globalBase = base;
                rec.bytes = std::uint32_t(bytes);
                maps[id].push_back({rec.localOffset, rec.bytes,
                                    rec.writable});
            } else {
                return fail("unknown opcode '" + op + "'");
            }
            cur->perCu[id].push_back(std::move(rec));
            continue;
        }

        if (tok[0] == "core") {
            if (!cur || cur->kind != Phase::Kind::Cpu)
                return fail("'core' record outside a cpu phase");
            if (tok.size() < 4)
                return fail("truncated record");
            std::uint64_t id = 0;
            if (!parseU64(tok[1], id))
                return fail("bad core id '" + tok[1] + "'");
            if (id >= lim.maxCpuCores) {
                return fail("core " + tok[1] +
                            " out of range (machine has " +
                            std::to_string(lim.maxCpuCores) +
                            " CPU cores)");
            }
            if (cur->perCore.size() <= id)
                cur->perCore.resize(std::size_t(id) + 1);

            CpuOp c;
            std::uint64_t a = 0;
            if (!parseU64(tok[3], a) || a % wordBytes)
                return fail("bad address '" + tok[3] + "'");
            c.addr = a;
            const bool hasValue = tok.size() == 6 && tok[4] == "=";
            std::uint64_t v = 0;
            if (hasValue &&
                (!parseU64(tok[5], v) || v > 0xffff'ffffull)) {
                return fail("bad value '" + tok[5] + "'");
            }
            if (tok[2] == "st") {
                if (!hasValue)
                    return fail("'st' takes <addr> = <value>");
                c.isStore = true;
                c.value = std::uint32_t(v);
            } else if (tok[2] == "ld") {
                if (!(tok.size() == 4 || hasValue))
                    return fail("'ld' takes <addr> [= <expect>]");
                if (hasValue) {
                    c.value = std::uint32_t(v);
                    c.checkValue = true;
                }
            } else {
                return fail("unknown opcode '" + tok[2] + "'");
            }
            cur->perCore[id].push_back(c);
            continue;
        }

        return fail("unknown directive '" + tok[0] + "'");
    }

    if (!sawHeader) {
        err = "missing 'stashtrace v1' header";
        return false;
    }
    if (cur)
        return fail("unterminated phase (missing 'endphase')");
    if (out.warmup > 0 && out.warmup >= out.phases.size()) {
        err = "warmup (" + std::to_string(out.warmup) +
              ") must be smaller than the phase count (" +
              std::to_string(out.phases.size()) + ")";
        return false;
    }
    return true;
}

std::string
writeTrace(const TraceData &t)
{
    std::ostringstream os;
    os << "stashtrace v1\n";
    os << "warmup " << t.warmup << "\n";
    for (const TracePhase &p : t.phases) {
        if (p.kind == Phase::Kind::Gpu) {
            os << "phase gpu "
               << (p.kernel.empty() ? "trace_kernel" : p.kernel)
               << "\n";
            for (std::size_t cu = 0; cu < p.perCu.size(); ++cu) {
                for (const TraceGpuOp &r : p.perCu[cu]) {
                    os << "cu " << cu << ' ';
                    switch (r.kind) {
                      case TraceGpuOp::Kind::Compute:
                        os << "compute " << r.cycles;
                        if (r.accDelta)
                            os << ' ' << r.accDelta;
                        break;
                      case TraceGpuOp::Kind::Ld:
                        os << "ld " << hexList(r.addrs);
                        break;
                      case TraceGpuOp::Kind::St:
                        os << "st " << hexList(r.addrs);
                        if (r.hasValue)
                            os << " = " << r.value;
                        break;
                      case TraceGpuOp::Kind::Lld:
                        os << "lld " << hexList(r.addrs);
                        break;
                      case TraceGpuOp::Kind::Lst:
                        os << "lst " << hexList(r.addrs);
                        if (r.hasValue)
                            os << " = " << r.value;
                        break;
                      case TraceGpuOp::Kind::Map:
                        os << "map " << hexAddr(r.localOffset) << ' '
                           << hexAddr(r.globalBase) << ' ' << r.bytes
                           << ' ' << (r.writable ? "rw" : "ro");
                        break;
                    }
                    os << "\n";
                }
            }
        } else {
            os << "phase cpu\n";
            for (std::size_t c = 0; c < p.perCore.size(); ++c) {
                for (const CpuOp &op : p.perCore[c]) {
                    os << "core " << c << ' ';
                    if (op.isStore) {
                        os << "st " << hexAddr(op.addr) << " = "
                           << op.value;
                    } else {
                        os << "ld " << hexAddr(op.addr);
                        if (op.checkValue)
                            os << " = " << op.value;
                    }
                    os << "\n";
                }
            }
        }
        os << "endphase\n";
    }
    return os.str();
}

std::uint64_t
traceHash(const TraceData &t)
{
    const std::string s = writeTrace(t);
    std::uint64_t h = 0xcbf2'9ce4'8422'2325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x1'0000'01b3ull;
    }
    return h;
}

Workload
makeTraceReplay(const TraceData &t, MemOrg org,
                const std::string &name)
{
    Workload wl;
    wl.name = name;
    wl.warmupPhases = t.warmup;

    for (const TracePhase &tp : t.phases) {
        if (tp.kind == Phase::Kind::Cpu) {
            wl.phases.push_back(Phase::cpu(tp.perCore));
            continue;
        }
        Kernel k;
        k.name = tp.kernel.empty() ? "trace_kernel" : tp.kernel;
        // One block per recorded CU index, in order, so block i lands
        // on CU i under the round-robin launch distribution.
        for (std::size_t cu = 0; cu < tp.perCu.size(); ++cu) {
            TbBuilder b(org, 1);
            struct MapRef
            {
                unsigned handle = 0;
                std::uint32_t lo = 0;
                std::uint32_t bytes = 0;
            };
            std::vector<MapRef> maps;
            for (const TraceGpuOp &r : tp.perCu[cu]) {
                switch (r.kind) {
                  case TraceGpuOp::Kind::Compute:
                    b.compute(0, r.cycles, r.accDelta);
                    break;
                  case TraceGpuOp::Kind::Map: {
                    TileUse u;
                    u.tile = spanTile(r.globalBase,
                                      r.bytes / wordBytes);
                    u.localOffset = r.localOffset;
                    u.readIn = true;
                    u.writeOut = r.writable;
                    maps.push_back({b.addTile(u), r.localOffset,
                                    r.bytes});
                    break;
                  }
                  case TraceGpuOp::Kind::Ld:
                  case TraceGpuOp::Kind::St: {
                    const bool st = r.kind == TraceGpuOp::Kind::St;
                    const Addr base = *std::min_element(
                        r.addrs.begin(), r.addrs.end());
                    const Addr top = *std::max_element(
                        r.addrs.begin(), r.addrs.end());
                    TileUse u;
                    u.tile = spanTile(
                        base,
                        std::uint32_t((top - base) / wordBytes) + 1);
                    u.readIn = !st;
                    u.writeOut = st;
                    u.originallyGlobal = true;
                    u.convertible = false; // raw addresses stay global
                    const unsigned h = b.addTile(u);
                    LaneList elems;
                    for (Addr a : r.addrs) {
                        elems.push_back(
                            std::uint32_t((a - base) / wordBytes));
                    }
                    b.accessTile(0, h, elems, st, !r.hasValue,
                                 r.value);
                    break;
                  }
                  case TraceGpuOp::Kind::Lld:
                  case TraceGpuOp::Kind::Lst: {
                    const bool st = r.kind == TraceGpuOp::Kind::Lst;
                    const MapRef *m = nullptr;
                    for (const auto &mm : maps) {
                        if (inMap(r.addrs[0], mm.lo, mm.bytes)) {
                            m = &mm;
                            break;
                        }
                    }
                    if (!m) {
                        fatal("trace replay: local offset ",
                              r.addrs[0], " has no covering map");
                    }
                    LaneList elems;
                    for (Addr a : r.addrs) {
                        if (!inMap(a, m->lo, m->bytes)) {
                            fatal("trace replay: local offset ", a,
                                  " leaves its covering map");
                        }
                        elems.push_back(
                            std::uint32_t((a - m->lo) / wordBytes));
                    }
                    b.accessTile(0, m->handle, elems, st,
                                 !r.hasValue, r.value);
                    break;
                  }
                }
            }
            k.blocks.push_back(b.build());
        }
        wl.phases.push_back(Phase::gpu(std::move(k)));
    }
    return wl;
}

TraceData
traceFromWorkload(const Workload &wl, unsigned num_cus)
{
    sim_assert(num_cus > 0);
    TraceData t;
    t.warmup = wl.warmupPhases;
    for (const Phase &ph : wl.phases) {
        TracePhase tp;
        if (ph.kind == Phase::Kind::Cpu) {
            tp.kind = Phase::Kind::Cpu;
            tp.perCore = ph.cpuWork;
            // Replay has no functional init image, so recorded value
            // checks would fail spuriously; keep the timed loads,
            // drop the expectations.
            for (auto &core : tp.perCore) {
                for (auto &op : core) {
                    if (!op.isStore) {
                        op.checkValue = false;
                        op.value = 0;
                    }
                }
            }
        } else {
            tp.kind = Phase::Kind::Gpu;
            tp.kernel = ph.kernel.name.empty() ? "trace_kernel"
                                               : ph.kernel.name;
            for (auto &c : tp.kernel) {
                if (c == ' ' || c == '\t')
                    c = '_';
            }
            const auto &blocks = ph.kernel.blocks;
            tp.perCu.resize(
                std::min<std::size_t>(num_cus, blocks.size()));
            for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
                auto &stream = tp.perCu[blk % num_cus];
                const ThreadBlock &tb = blocks[blk];
                for (const auto &warp : tb.warps) {
                    for (const WarpOp &op : warp) {
                        TraceGpuOp rec;
                        const auto lanes = tb.lanes(op);
                        switch (op.kind) {
                          case OpKind::Compute:
                            rec.kind = TraceGpuOp::Kind::Compute;
                            rec.cycles = op.cycles;
                            rec.accDelta = op.accDelta;
                            break;
                          case OpKind::GlobalLd:
                            rec.kind = TraceGpuOp::Kind::Ld;
                            rec.addrs.assign(lanes.begin(), lanes.end());
                            break;
                          case OpKind::GlobalSt:
                            rec.kind = TraceGpuOp::Kind::St;
                            rec.addrs.assign(lanes.begin(), lanes.end());
                            rec.hasValue = !op.storeAcc;
                            rec.value = op.value;
                            break;
                          case OpKind::Barrier:
                            // One serial stream per CU: barriers are
                            // meaningless after linearization.
                            continue;
                          default:
                            fatal("trace recording requires a "
                                  "cache-organization build (found ",
                                  opKindName(op.kind), " op)");
                        }
                        stream.push_back(std::move(rec));
                    }
                }
            }
        }
        t.phases.push_back(std::move(tp));
    }
    return t;
}

const char *
demoTrace()
{
    return R"(stashtrace v1
# Built-in demo: a CPU produce phase, one GPU kernel spread over two
# CUs (a staged rw map plus raw global traffic), and a checked CPU
# consume phase.
warmup 1
phase cpu
core 0 st 0x10000 = 41
core 0 st 0x10004 = 7
core 0 st 0x20000 = 5
endphase
phase gpu demo_kernel
cu 0 map 0x0 0x10000 64 rw
cu 0 compute 4
cu 0 lld 0x0,0x4
cu 0 compute 2 1
cu 0 lst 0x0,0x4
cu 0 st 0x30000 = 9
cu 1 ld 0x20000
cu 1 compute 3 2
cu 1 st 0x20000
endphase
phase cpu
core 0 ld 0x10000 = 42
core 0 ld 0x10004 = 8
core 0 ld 0x20000 = 7
core 0 ld 0x30000 = 9
endphase
)";
}

} // namespace workloads
} // namespace stashsim

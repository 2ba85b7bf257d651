#include "cpu/cpu_core.hh"

#include <sstream>

#include "sim/log.hh"
#include "verify/watchdog.hh"

namespace stashsim
{

CpuCore::CpuCore(EventQueue &eq, L1Cache &l1, CoreId core,
                 unsigned max_outstanding)
    : eq(eq), l1(l1), core(core), maxOutstanding(max_outstanding)
{
}

void
CpuCore::run(std::vector<CpuOp> run_ops, std::function<void()> run_done,
             std::vector<std::string> *err)
{
    sim_assert(nextOp >= ops.size() && outstanding == 0);
    ops = std::move(run_ops);
    nextOp = 0;
    done = std::move(run_done);
    errors = err;
    if (ops.empty()) {
        eq.scheduleIn(0, [this]() { done(); });
        return;
    }
    issueNext();
}

void
CpuCore::issueNext()
{
    issueScheduled = false;
    if (nextOp >= ops.size())
        return;
    if (outstanding >= maxOutstanding) {
        // Retry when an access completes.
        return;
    }

    const std::size_t idx = nextOp++;
    const CpuOp &op = ops[idx];
    if (op.isStore)
        ++_stats.stores;
    else
        ++_stats.loads;

    LineData store;
    if (op.isStore)
        store.w[lineWord(op.addr)] = op.value;

    ++outstanding;
    l1.access(lineBase(op.addr), wordBit(lineWord(op.addr)), op.isStore,
              op.isStore ? &store : nullptr,
              [this, idx](const LineData &d) { onComplete(idx, d); });

    // One issue per CPU cycle.
    if (nextOp < ops.size() && outstanding < maxOutstanding) {
        issueScheduled = true;
        eq.scheduleIn(cpuClockPeriod, [this]() { issueNext(); });
    }
}

void
CpuCore::onComplete(std::size_t idx, const LineData &d)
{
    if (watchdog)
        watchdog->progress();
    const CpuOp &op = ops[idx];
    if (!op.isStore && op.checkValue) {
        const std::uint32_t got = d.w[lineWord(op.addr)];
        if (got != op.value && errors) {
            std::ostringstream os;
            os << "cpu" << core << ": load @0x" << std::hex << op.addr
               << " = 0x" << got << ", expected 0x" << op.value;
            errors->push_back(os.str());
        }
    }
    sim_assert(outstanding > 0);
    --outstanding;

    if (nextOp < ops.size()) {
        if (!issueScheduled) {
            issueScheduled = true;
            eq.scheduleIn(cpuClockPeriod, [this]() { issueNext(); });
        }
        return;
    }
    if (outstanding == 0)
        done();
}

void
CpuCore::assertDrained() const
{
    sim_assert(outstanding == 0);
}

} // namespace stashsim

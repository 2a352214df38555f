#include "core/sim/engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>

namespace haac {

namespace {

constexpr uint32_t kNever32 = ~uint32_t(0);
constexpr uint64_t kNoWake = ~uint64_t(0);

/** A cycle-stamped count: queue entries landing, or bytes to write. */
struct Event
{
    uint64_t cycle;
    uint32_t count;
};

/** FIFO of Events in a growable power-of-two ring. */
class EventRing
{
  public:
    bool empty() const { return head_ == tail_; }
    const Event &front() const { return buf_[head_ & mask_]; }
    void pop() { ++head_; }

    void
    push(uint64_t cycle, uint32_t count)
    {
        if (tail_ - head_ == buf_.size()) {
            std::vector<Event> next(std::max<size_t>(8, 2 * buf_.size()));
            for (size_t i = head_; i != tail_; ++i)
                next[i - head_] = buf_[i & mask_];
            tail_ -= head_;
            head_ = 0;
            buf_.swap(next);
            mask_ = buf_.size() - 1;
        }
        buf_[tail_++ & mask_] = Event{cycle, count};
    }

  private:
    std::vector<Event> buf_;
    size_t mask_ = 0; ///< buf_.size() - 1
    size_t head_ = 0, tail_ = 0;
};

/** Inbound streaming queue fed by the shared DRAM (paper §3.1). */
struct StreamQueue
{
    uint32_t grantBytes = 1;   ///< DRAM bytes per entry (addr + data)
    uint64_t totalEntries = 0;
    uint64_t granted = 0;
    uint64_t arrived = 0;
    uint64_t consumed = 0;
    uint64_t capacityEntries = 1;
    uint64_t maxBatch = 1;     ///< entries per DRAM grant, at most
    /** Granted batches in grant order; they land in that order (an
     * OoRW fetch may wait on its producer, and holds up the ones
     * behind it). */
    EventRing inflight;

    /** Entries on chip or on their way: granted, not yet consumed. */
    uint64_t reserved() const { return granted - consumed; }

    bool
    wantsGrant() const
    {
        return granted < totalEntries && reserved() < capacityEntries;
    }

    /** Entries the next grant carries (valid while wantsGrant()). */
    uint64_t
    nextBatch() const
    {
        return std::min({maxBatch, totalEntries - granted,
                         capacityEntries - reserved()});
    }

    /**
     * First cycle at which available() can turn true again, given it
     * is false at @p now (whose DRAM step has already run): the front
     * arrival, or — with nothing in flight — the earliest arrival of a
     * grant made next cycle. Only the owning GE consumes, so nothing
     * else can change the outcome before then.
     */
    uint64_t
    nextArrival(uint64_t now, uint32_t dram_latency) const
    {
        return inflight.empty() ? now + 1 + dram_latency
                                : inflight.front().cycle;
    }

    void
    drainArrivals(uint64_t now)
    {
        for (; !inflight.empty() && inflight.front().cycle <= now;
             inflight.pop())
            arrived += inflight.front().count;
    }

    /** Are @p need entries on chip at @p now? (Arrivals are counted
     * only when that is not already known.) */
    bool
    available(uint64_t now, uint64_t need = 1)
    {
        if (arrived - consumed >= need)
            return true;
        drainArrivals(now);
        return arrived - consumed >= need;
    }
};

/** Rolling reservation table for single-ported SWW banks (2 acc/cyc). */
class BankTracker
{
  public:
    static constexpr uint32_t kWindow = 64;

    BankTracker(uint32_t banks)
        : banks_(banks), mask_((banks & (banks - 1)) == 0 ? banks - 1 : 0),
          slots_(kWindow * banks)
    {}

    /** Bank holding @p addr (address-interleaved). */
    uint32_t
    bankOf(uint32_t addr) const
    {
        return mask_ != 0 || banks_ == 1 ? addr & mask_ : addr % banks_;
    }

    bool
    tryAccess(uint64_t cycle, uint32_t bank)
    {
        uint32_t &c = slot(cycle, bank);
        if (c >= 2)
            return false;
        ++c;
        return true;
    }

    void
    forceAccess(uint64_t cycle, uint32_t bank)
    {
        uint32_t &c = slot(cycle, bank);
        if (c < 255)
            ++c;
    }

    /** Read-only count for @p cycle (0 if the slot was recycled). */
    uint8_t
    peek(uint64_t cycle, uint32_t bank) const
    {
        const Slot &s = slots_[size_t(cycle % kWindow) * banks_ + bank];
        return s.stamp == uint32_t(cycle) ? uint8_t(s.count) : 0;
    }

    uint32_t banks() const { return banks_; }

  private:
    /** Accesses granted in the cycle @c stamp names. */
    struct Slot
    {
        uint32_t stamp = kNever32;
        uint32_t count = 0;
    };

    uint32_t &
    slot(uint64_t cycle, uint32_t bank)
    {
        Slot &s = slots_[size_t(cycle % kWindow) * banks_ + bank];
        if (s.stamp != uint32_t(cycle)) {
            s.stamp = uint32_t(cycle);
            s.count = 0;
        }
        return s.count;
    }

    uint32_t banks_;
    uint32_t mask_; ///< banks_ - 1 for a power of two, else 0
    std::vector<Slot> slots_;
};

struct GeRunState
{
    const GeStreams *streams = nullptr;
    size_t cursor = 0;
    StreamQueue instrQ;
    StreamQueue tableQ; ///< evaluator inbound only
    StreamQueue oorQ;
    /** The OoRW lane's head address has no DRAM-ready cycle yet, so
     * the lane sits out of the DRAM sweep (Engine::parked_). */
    bool oorParked = false;

    /** @name Sleep state: the head instruction's stall is known to
     * repeat until the GE's wake cycle (Engine::sleepers_, or an event
     * for a wait with no known end), so it is not polled before then;
     * the skipped cycles are charged to @c sleepStall (counted through
     * @c stalledAt). */
    /// @{
    uint64_t *sleepStall = nullptr;
    uint64_t stalledAt = 0;
    /// @}

    StreamQueue &
    queue(size_t kind)
    {
        return kind == 0 ? instrQ : kind == 1 ? tableQ : oorQ;
    }

    /** Charge the stalls of the skipped cycles up to @p cycle. */
    void
    settle(uint64_t cycle)
    {
        *sleepStall += cycle - stalledAt;
        stalledAt = cycle;
    }
};

/**
 * The unified engine: one loop covering the compiler's scheduling pass
 * and all three timing modes.
 */
class Engine
{
  public:
    Engine(const HaacProgram &prog, const HaacConfig &cfg,
           const StreamSet *streams, SimMode mode, bool global_dispatch,
           const RemoteWireEnv *remote = nullptr,
           SimProbe *probe = nullptr)
        : prog_(prog), cfg_(cfg), streams_(streams),
          remote_(remote), probe_(probe),
          globalDispatch_(global_dispatch),
          modelTraffic_(mode == SimMode::Combined ||
                        mode == SimMode::TrafficOnly),
          modelCompute_(mode == SimMode::Combined ||
                        mode == SimMode::ComputeOnly),
          sleeps_(modelTraffic_ && !global_dispatch),
          banks_(cfg.totalBanks()),
          encBytes_(encodedInstrBytes(cfg.swwWires())),
          perCycle_(dramBytesPerCycle(cfg.dram) * cfg.dramBandwidthScale),
          // Budget accrual is capped at a few cycles of bandwidth, but
          // never below one full grant batch (64 B): a bandwidth-split
          // shard core must still be able to save up for a transfer,
          // just more slowly. Full-rate configs (DDR4 35.2 B/c and up)
          // already exceed 64 B, so their arbitration is unchanged.
          budgetCap_(std::max(4 * perCycle_, 64.0))
    {}

    SimStats run(StreamSet *record);

    /** Post-run: DRAM-ready cycle per export address (shard runs). */
    std::vector<uint64_t>
    exportTimes(const std::vector<uint32_t> &addrs) const
    {
        std::vector<uint64_t> out;
        out.reserve(addrs.size());
        for (uint32_t addr : addrs) {
            uint32_t t = wireDramReady_[addr];
            if (t == kNever32)
                t = wireReady_[addr]; // not live: forwardable cycle
            out.push_back(t == kNever32 ? stats_.cycles : t);
        }
        return out;
    }

  private:
    bool tryIssue(uint64_t t, uint32_t g, GeRunState &ge, uint32_t idx,
                  const HaacInstruction &local, uint64_t *hint);
    bool sleep(uint32_t g, uint64_t t, uint64_t wake, uint64_t *stall);
    void wakeWaiters(uint32_t addr);
    void dramStep(uint64_t t);
    void grantLane(size_t lane, uint64_t t);
    void refreshLane(size_t lane);
    void refreshQueueLane(size_t lane, const StreamQueue &q);
    void setLaneCost(size_t lane, uint64_t cost);
    bool oorHeadBlocked(uint32_t g);
    void unparkLanes(uint32_t addr);
    uint64_t nextCycle(uint64_t t, bool issued, bool all_issued);
    bool stalledForever() const;
    [[noreturn]] void throwStalled(uint64_t t) const;
    void setupQueues();
    void finalizeTrafficStats(bool completed);

    SimProbeView probeView(uint64_t t);

    void setAwake(uint32_t g) { awake_[g / 64] |= uint64_t(1) << (g % 64); }
    void
    clearAwake(uint32_t g)
    {
        awake_[g / 64] &= ~(uint64_t(1) << (g % 64));
    }

    /** Cheapest wanting lane's grant cost (costMask_ != 0). */
    uint32_t minLaneCost() const { return __builtin_ctzll(costMask_) + 1; }

    /** Labels the input preload's next grant carries. */
    uint64_t
    preloadBatch() const
    {
        return std::min<uint64_t>(4, inputLoad_.totalEntries -
                                         inputLoad_.granted);
    }

    /** Earliest outbound write not yet drainable (kNoWake: none). */
    uint64_t
    nextWrite() const
    {
        uint64_t at = kNoWake;
        for (const EventRing &r : writes_)
            if (!r.empty())
                at = std::min(at, r.front().cycle);
        return at;
    }

    bool
    writesPending() const
    {
        return modelTraffic_ && (writableBytes_ > 0 || nextWrite() != kNoWake);
    }

    const HaacProgram &prog_;
    const HaacConfig &cfg_;
    const StreamSet *streams_;
    const RemoteWireEnv *remote_;
    SimProbe *probe_;
    bool globalDispatch_;
    bool modelTraffic_;
    bool modelCompute_;
    /** Stalled GEs sleep to their wake cycle; needs the cycles between
     * events to be accounted for, i.e. modelled traffic (ComputeOnly
     * and the scheduling pass skip idle cycles with hints instead). */
    bool sleeps_;

    BankTracker banks_;
    uint32_t encBytes_;
    SimStats stats_;
    uint64_t total_ = 0; ///< instructions this run issues

    std::vector<GeRunState> ges_;
    /** GEs polled in every visited cycle (bit g % 64 of word g / 64);
     * the others are finished or asleep. */
    std::vector<uint64_t> awake_;
    /** Awake GEs whose last poll found an operand nobody has produced
     * (write-producing work stays awake on that stall). */
    std::vector<uint64_t> wireBlocked_;
    /** Min-heap of (wake cycle, GE) over the GEs asleep to a known
     * cycle. */
    std::vector<std::pair<uint64_t, uint32_t>> sleepers_;
    std::vector<uint32_t> wireReady_;     ///< forwardable cycle per addr
    std::vector<uint32_t> wireDramReady_; ///< cycle the label is in DRAM
    /** (wire, GE) per GE asleep on an operand nobody has produced. */
    std::vector<std::pair<uint32_t, uint32_t>> waiters_;
    /** Bit w % 64 set for each waiter's wire w: a write to a wire no
     * GE waits on mostly skips the scan. */
    uint64_t waitFilter_ = 0;
    std::vector<uint32_t> bufferWaiters_; ///< GEs sleeping on a full buffer
    std::vector<uint32_t> parked_; ///< GEs whose OoRW lane is parked

    // Input preload stream (addresses [inputBase_, numInputs]).
    uint32_t inputBase_ = 1;
    StreamQueue inputLoad_;

    /** Outbound writes (live wires, garbler tables) until drainable,
     * per latency class [non-AND, AND]: within a class they become
     * drainable in issue order. */
    EventRing writes_[2];
    uint64_t writableBytes_ = 0;
    uint64_t scheduledWriteBytes_ = 0;
    uint64_t drainedWriteBytes_ = 0;

    double perCycle_;  ///< DRAM bytes accrued per cycle
    double budgetCap_; ///< most the budget can save up
    double dramBudget_ = 0;
    size_t rrPtr_ = 0;
    /** DRAM lanes: 3 per GE (instr, table, OoRW), then the outbound
     * drain. laneCost_ is what a lane's next grant costs (1..64 B; 0:
     * it wants none). It changes only when the lane is granted or its
     * queue consumed (the drain: when writes become drainable; an OoRW
     * lane: when its head's producer writes), so the lanes are kept
     * in one bit set per cost: costLanes_[(c - 1) * laneWords_ + w]
     * holds word w of the lanes costing c, and bit c - 1 of costMask_
     * is set while any lane costs c. dramStep() then finds the lanes
     * the budget covers without visiting the others. */
    size_t lanes_ = 0;
    size_t laneWords_ = 0;
    std::vector<uint32_t> laneCost_;
    std::vector<uint64_t> costLanes_;
    std::array<uint32_t, 65> costCount_{};
    uint64_t costMask_ = 0;
    uint64_t lastCompletion_ = 0;
    uint64_t lastDrainCycle_ = 0;
};

void
Engine::setupQueues()
{
    const uint32_t n = cfg_.numGes;
    ges_.resize(n);
    awake_.assign((n + 63) / 64, 0);
    wireBlocked_.assign((n + 63) / 64, 0);
    stats_.issuedPerGe.assign(n, 0);

    // Queue SRAM split per GE: 25% instructions, 50% tables, 25% OoRW.
    const size_t per_ge = cfg_.queueSramBytes / n;
    const auto entries = [](size_t bytes, uint32_t entry) {
        return std::max<uint64_t>(1, bytes / entry);
    };

    for (uint32_t g = 0; g < n; ++g) {
        GeRunState &ge = ges_[g];
        if (streams_)
            ge.streams = &streams_->ge[g];
        ge.instrQ.grantBytes = encBytes_;
        ge.instrQ.capacityEntries = entries(per_ge / 4, encBytes_);
        ge.tableQ.grantBytes = uint32_t(kTableBytes);
        ge.tableQ.capacityEntries =
            entries(per_ge / 2, uint32_t(kTableBytes));
        // OoRW entries occupy a label on-chip but cost addr+data DRAM
        // bandwidth (32-bit streamed addresses, §3.1.4).
        ge.oorQ.grantBytes = uint32_t(kLabelBytes) + 4;
        ge.oorQ.capacityEntries =
            entries(per_ge / 4, uint32_t(kLabelBytes));
        // Instructions and tables move in 64 B batches; OoRW entries
        // one at a time (each waits on its own producer's write).
        ge.instrQ.maxBatch = std::max<uint64_t>(1, 64 / encBytes_);
        ge.tableQ.maxBatch = std::max<uint64_t>(1, 64 / kTableBytes);
        if (ge.streams) {
            if (!ge.streams->instrs.empty())
                setAwake(g);
            ge.instrQ.totalEntries = ge.streams->instrs.size();
            ge.tableQ.totalEntries =
                cfg_.role == Role::Evaluator ? ge.streams->tableCount : 0;
            ge.oorQ.totalEntries = ge.streams->oorAddrs.size();
        }
    }

    // Initial SWW residency: inputs at or above the first window base.
    inputBase_ = std::max<uint32_t>(
        1, windowBase(prog_.numInputs + 1, cfg_.swwWires()));
    const uint64_t resident =
        prog_.numInputs >= inputBase_
            ? prog_.numInputs - inputBase_ + 1
            : 0;
    inputLoad_.grantBytes = uint32_t(kLabelBytes);
    inputLoad_.totalEntries = resident;
    inputLoad_.capacityEntries = ~uint64_t(0) >> 1; // SWW-backed

    // Instruction outputs are "not yet produced" until their issue
    // sets a real ready time; inputs are ready immediately (ideal
    // memory) or when their preload lands (modelled traffic).
    wireReady_.assign(prog_.numAddrs(), kNever32);
    for (uint32_t w = 0; w <= prog_.numInputs; ++w)
        wireReady_[w] = 0;
    wireDramReady_.assign(prog_.numAddrs(), kNever32);
    // Inputs live in DRAM from the start (host-provided labels).
    for (uint32_t w = 1; w <= prog_.numInputs; ++w)
        wireDramReady_[w] = 0;
    if (modelTraffic_) {
        // Resident inputs become usable when their preload lands.
        for (uint32_t w = inputBase_; w <= prog_.numInputs; ++w)
            wireReady_[w] = kNever32; // set on arrival
    }

    // Remote-produced wires (other shards of the same program) land in
    // the SWW and in DRAM at their announced ready cycles, so both
    // in-window reads and OoRW fetches can proceed.
    if (remote_) {
        for (size_t i = 0; i < remote_->addrs.size(); ++i) {
            const uint32_t when = uint32_t(std::min<uint64_t>(
                remote_->readyCycles[i], kNever32 - 1));
            wireReady_[remote_->addrs[i]] = when;
            wireDramReady_[remote_->addrs[i]] = when;
        }
    }

    lanes_ = size_t(n) * 3 + 1;
    laneWords_ = (lanes_ + 63) / 64;
    laneCost_.assign(lanes_, 0);
    costLanes_.assign(64 * laneWords_, 0);
    if (modelTraffic_)
        for (size_t lane = 0; lane + 1 < lanes_; ++lane)
            refreshLane(lane);
}

void
Engine::refreshLane(size_t lane)
{
    uint64_t cost = 0;
    if (lane == lanes_ - 1) {
        // Outbound drain: up to 64 B of whatever is writable.
        cost = std::min<uint64_t>(writableBytes_, 64);
    } else {
        const StreamQueue &q = ges_[lane / 3].queue(lane % 3);
        if (q.wantsGrant() &&
            !(lane % 3 == 2 && oorHeadBlocked(uint32_t(lane / 3))))
            cost = q.nextBatch() * q.grantBytes;
    }
    setLaneCost(lane, cost);
}

/** Instruction or table lane @p lane of queue @p q: its cost now. */
inline void
Engine::refreshQueueLane(size_t lane, const StreamQueue &q)
{
    setLaneCost(lane, q.wantsGrant() ? q.nextBatch() * q.grantBytes : 0);
}

inline void
Engine::setLaneCost(size_t lane, uint64_t cost)
{
    assert(cost <= 64 && "a grant moves at most 64 B");
    const uint32_t old = laneCost_[lane];
    if (old == cost)
        return;
    const uint64_t bit = uint64_t(1) << (lane % 64);
    if (old != 0) {
        costLanes_[(old - 1) * laneWords_ + lane / 64] &= ~bit;
        if (--costCount_[old] == 0)
            costMask_ &= ~(uint64_t(1) << (old - 1));
    }
    laneCost_[lane] = uint32_t(cost);
    if (cost != 0) {
        costLanes_[(cost - 1) * laneWords_ + lane / 64] |= bit;
        if (costCount_[cost]++ == 0)
            costMask_ |= uint64_t(1) << (cost - 1);
    }
}

/**
 * The OoRW fetch at GE @p g's head must wait for its label to be valid
 * in DRAM (§3.1.4 valid bits). Until its producer writes, the lane is
 * parked: out of the sweep, and back in when unparkLanes() sees that
 * write. Returns whether it is parked.
 */
bool
Engine::oorHeadBlocked(uint32_t g)
{
    GeRunState &ge = ges_[g];
    const uint32_t addr = ge.streams->oorAddrs[size_t(ge.oorQ.granted)];
    if (wireDramReady_[addr] != kNever32)
        return false;
    if (!ge.oorParked) {
        ge.oorParked = true;
        parked_.push_back(g);
    }
    return true;
}

/** @p addr just got its DRAM-ready cycle: unpark the lanes it heads. */
void
Engine::unparkLanes(uint32_t addr)
{
    for (size_t i = 0; i < parked_.size();) {
        const uint32_t g = parked_[i];
        GeRunState &ge = ges_[g];
        if (ge.streams->oorAddrs[size_t(ge.oorQ.granted)] != addr) {
            ++i;
            continue;
        }
        ge.oorParked = false;
        parked_[i] = parked_.back();
        parked_.pop_back();
        refreshLane(size_t(g) * 3 + 2);
    }
}

void
Engine::dramStep(uint64_t t)
{
    dramBudget_ = std::min(dramBudget_ + perCycle_, budgetCap_);

    bool wrote = false;
    for (EventRing &r : writes_)
        for (; !r.empty() && r.front().cycle <= t; r.pop()) {
            writableBytes_ += r.front().count;
            wrote = true;
        }
    if (wrote)
        refreshLane(lanes_ - 1);

    // Input preload: arrival order is ascending address.
    if (inputLoad_.wantsGrant()) {
        const uint64_t batch = preloadBatch();
        const double bytes = double(batch * inputLoad_.grantBytes);
        if (dramBudget_ >= bytes) {
            dramBudget_ -= bytes;
            const uint64_t arrival = t + cfg_.dramLatency;
            for (uint64_t i = 0; i < batch; ++i) {
                const uint32_t w =
                    inputBase_ + uint32_t(inputLoad_.granted + i);
                wireReady_[w] = uint32_t(arrival);
                if (waitFilter_ >> (w % 64) & 1)
                    wakeWaiters(w);
            }
            inputLoad_.granted += batch;
            inputLoad_.arrived += batch; // tracked via wireReady_
        }
    }

    // Round-robin over GE streams (instr, table, OoRW) plus writes,
    // starting at rrPtr_: each lane in turn is granted if the budget
    // left covers its cost. The budget only shrinks, so a lane it did
    // not cover at the start of a word is not visited at all.
    const auto covered = [&](size_t w) {
        const uint32_t whole = uint32_t(std::min(dramBudget_, 64.0));
        uint64_t costs =
            whole == 0 ? 0 : costMask_ & (~uint64_t(0) >> (64 - whole));
        uint64_t lanes = 0;
        for (; costs != 0; costs &= costs - 1)
            lanes |= costLanes_[size_t(__builtin_ctzll(costs)) * laneWords_ + w];
        return lanes;
    };
    const auto sweep = [&](size_t from, size_t to) {
        for (size_t w = from / 64; w * 64 < to; ++w) {
            uint64_t range = ~uint64_t(0);
            if (w == from / 64)
                range &= ~uint64_t(0) << (from % 64);
            if (to - w * 64 < 64)
                range &= (uint64_t(1) << (to - w * 64)) - 1;
            for (uint64_t bits = covered(w) & range; bits != 0;
                 bits &= bits - 1) {
                const size_t lane = w * 64 + size_t(__builtin_ctzll(bits));
                if (dramBudget_ >= laneCost_[lane])
                    grantLane(lane, t);
            }
        }
    };
    sweep(rrPtr_, lanes_);
    sweep(0, rrPtr_);
    if (++rrPtr_ == lanes_)
        rrPtr_ = 0;
}

void
Engine::grantLane(size_t lane, uint64_t t)
{
    const uint32_t cost = laneCost_[lane];
    dramBudget_ -= cost;
    if (lane == lanes_ - 1) {
        // Outbound drain.
        writableBytes_ -= cost;
        drainedWriteBytes_ += cost;
        lastDrainCycle_ = t;
        refreshLane(lane);
        // GEs blocked on a full buffer retry this cycle once there is
        // room; the GE loop has not run yet.
        if (scheduledWriteBytes_ - drainedWriteBytes_ <
            cfg_.writeBufferBytes) {
            for (uint32_t g : bufferWaiters_)
                setAwake(g);
            bufferWaiters_.clear();
        }
        return;
    }
    GeRunState &ge = ges_[lane / 3];
    StreamQueue &q = ge.queue(lane % 3);
    uint64_t arrival = t + cfg_.dramLatency;
    if (lane % 3 == 2) {
        // OoRW: the fetch lands after the label is valid in DRAM (an
        // unwritten one parks the lane, see oorHeadBlocked()).
        const uint32_t ready =
            wireDramReady_[ge.streams->oorAddrs[size_t(q.granted)]];
        arrival = std::max<uint64_t>(t, ready) + cfg_.dramLatency;
    }
    const uint64_t batch = q.nextBatch();
    q.inflight.push(arrival, uint32_t(batch));
    q.granted += batch;
    if (lane % 3 == 2)
        refreshLane(lane);
    else
        refreshQueueLane(lane, q);
}

/**
 * Park GE @p g, stalled at @p t, until @p wake (kNoWake: until an event
 * wakes it); returns false where the run does not sleep.
 */
bool
Engine::sleep(uint32_t g, uint64_t t, uint64_t wake, uint64_t *stall)
{
    if (!sleeps_)
        return false;
    clearAwake(g);
    if (wake != kNoWake) {
        sleepers_.emplace_back(wake, g);
        std::push_heap(sleepers_.begin(), sleepers_.end(),
                       std::greater<>());
    }
    ges_[g].sleepStall = stall;
    ges_[g].stalledAt = t;
    return true;
}

/**
 * @p addr just got its ready cycle: GEs asleep on it wake, so they are
 * polled later in this cycle if the GE loop has yet to reach them (or
 * has not started), else in the next one.
 */
void
Engine::wakeWaiters(uint32_t addr)
{
    uint64_t filter = 0;
    for (size_t i = 0; i < waiters_.size();) {
        if (waiters_[i].first != addr) {
            filter |= uint64_t(1) << (waiters_[i].first % 64);
            ++i;
            continue;
        }
        setAwake(waiters_[i].second);
        waiters_[i] = waiters_.back();
        waiters_.pop_back();
    }
    waitFilter_ = filter;
}

bool
Engine::tryIssue(uint64_t t, uint32_t g, GeRunState &ge, uint32_t idx,
                 const HaacInstruction &local, uint64_t *hint)
{
    const HaacInstruction &ins = prog_.instrs[idx];
    const uint32_t out = prog_.outputAddrOf(idx);
    const bool is_and = ins.op == HaacOp::And;
    const bool is_not = ins.op == HaacOp::Not;

    // Stream availability. A queue stall repeats until the queue's next
    // arrival: earlier checks keep passing (only this GE consumes).
    if (modelTraffic_) {
        if (!ge.instrQ.available(t)) {
            ++stats_.stallInstrQueue;
            sleep(g, t, ge.instrQ.nextArrival(t, cfg_.dramLatency),
                  &stats_.stallInstrQueue);
            return false;
        }
        if (is_and && cfg_.role == Role::Evaluator &&
            !ge.tableQ.available(t)) {
            ++stats_.stallTableQueue;
            sleep(g, t, ge.tableQ.nextArrival(t, cfg_.dramLatency),
                  &stats_.stallTableQueue);
            return false;
        }
    }
    const uint32_t oor_need = (local.a == kOorAddr ? 1 : 0) +
                              (!is_not && local.b == kOorAddr ? 1 : 0);
    if (modelTraffic_ && oor_need > 0 &&
        !ge.oorQ.available(t, oor_need)) {
        ++stats_.stallOorwQueue;
        sleep(g, t, ge.oorQ.nextArrival(t, cfg_.dramLatency),
              &stats_.stallOorwQueue);
        return false;
    }
    // Outbound backpressure: don't issue write-producing work into a
    // full write buffer.
    const bool garbler_and = is_and && cfg_.role == Role::Garbler;
    const bool writes_out = ins.live || garbler_and;
    if (modelTraffic_ && writes_out &&
        scheduledWriteBytes_ - drainedWriteBytes_ >=
            cfg_.writeBufferBytes) {
        ++stats_.stallWriteBuffer;
        // Only a drain can make room (issues only add bytes).
        if (sleep(g, t, kNoWake, &stats_.stallWriteBuffer))
            bufferWaiters_.push_back(g);
        return false;
    }

    // Operand readiness (forwarding network / SWW valid bits).
    if (modelCompute_) {
        const uint64_t deadline = t + cfg_.frontendDepth();
        uint64_t latest = 0;
        auto checkOperand = [&](uint32_t addr, bool is_oor) {
            // OoR operands are gated by their queue arrival (which in
            // turn waits for the producer's DRAM write). With ideal
            // memory there is no queue, so fall back to the direct
            // dependence check.
            if (is_oor && modelTraffic_)
                return;
            latest = std::max<uint64_t>(latest, wireReady_[addr]);
        };
        checkOperand(ins.a, local.a == kOorAddr);
        if (!is_not)
            checkOperand(ins.b, local.b == kOorAddr);
        if (latest > deadline) {
            ++stats_.stallOperand;
            if (hint && latest != kNever32)
                *hint = std::min<uint64_t>(
                    *hint, latest - cfg_.frontendDepth());
            // The stall repeats until the operands are in reach, or
            // until the producer of one with no ready cycle yet issues.
            // Not for write-producing work: a filling write buffer
            // would turn the same wait into a write-buffer stall.
            if (sleeps_ && writes_out && latest == kNever32) {
                wireBlocked_[g / 64] |= uint64_t(1) << (g % 64);
            } else if (sleeps_ && !writes_out) {
                if (latest != kNever32) {
                    sleep(g, t, latest - cfg_.frontendDepth(),
                          &stats_.stallOperand);
                } else {
                    sleep(g, t, kNoWake, &stats_.stallOperand);
                    const uint32_t addr = local.a != kOorAddr &&
                                                  wireReady_[ins.a] ==
                                                      kNever32
                                              ? ins.a
                                              : ins.b;
                    waiters_.emplace_back(addr, g);
                    waitFilter_ |= uint64_t(1) << (addr % 64);
                }
            }
            return false;
        }

        // SWW bank ports for the in-window operand reads.
        auto readBank = [&](uint32_t addr) {
            return banks_.tryAccess(t, banks_.bankOf(addr));
        };
        if (local.a != kOorAddr && !readBank(ins.a)) {
            ++stats_.stallBank;
            return false;
        }
        if (!is_not && local.b != kOorAddr && ins.b != ins.a &&
            !readBank(ins.b)) {
            ++stats_.stallBank;
            return false;
        }
    }

    // ---- Issue. ----
    const uint32_t lat = modelCompute_ ? cfg_.computeLatency(is_and) : 0;
    const uint64_t frontend = modelCompute_ ? cfg_.frontendDepth() : 0;
    const uint64_t complete = t + frontend + lat;
    const uint64_t written = complete + (modelCompute_
                                             ? cfg_.writebackStages
                                             : 0);

    if (modelTraffic_) {
        const size_t lane = size_t(g) * 3;
        ++ge.instrQ.consumed;
        refreshQueueLane(lane, ge.instrQ);
        if (is_and && cfg_.role == Role::Evaluator) {
            ++ge.tableQ.consumed;
            refreshQueueLane(lane + 1, ge.tableQ);
        }
        if (oor_need > 0) {
            ge.oorQ.consumed += oor_need;
            refreshLane(lane + 2);
        }
    }

    wireReady_[out] =
        uint32_t(cfg_.forwarding ? complete : written);
    if (waitFilter_ >> (out % 64) & 1)
        wakeWaiters(out);
    banks_.forceAccess(written, banks_.bankOf(out));
    ++stats_.swwWrites;
    stats_.swwReads += (is_not ? 1 : 2) - oor_need;
    if (modelCompute_ && cfg_.forwarding) {
        // Count consumers that beat the SWW write as forward hits.
        // (Approximation: producers finishing within the writeback
        // window of this issue.)
        stats_.forwardHits +=
            wireReady_[ins.a] + cfg_.writebackStages > t + frontend;
    }

    if (ins.live) {
        scheduledWriteBytes_ += kLabelBytes;
        wireDramReady_[out] = uint32_t(written);
        ++stats_.liveWires;
        if (!parked_.empty())
            unparkLanes(out);
    }
    if (garbler_and)
        scheduledWriteBytes_ += kTableBytes;
    // Only modelled traffic drains what is written.
    if (modelTraffic_ && writes_out)
        writes_[is_and].push(written,
                            uint32_t((ins.live ? kLabelBytes : 0) +
                                     (garbler_and ? kTableBytes : 0)));

    stats_.andOps += is_and;
    stats_.xorOps += ins.op == HaacOp::Xor;
    stats_.notOps += is_not;
    ++stats_.instructions;
    ++stats_.issuedPerGe[g];
    stats_.oorReads += oor_need;
    lastCompletion_ = std::max(lastCompletion_, written);
    return true;
}

/**
 * The next cycle to visit after @p t - 1 (modelled traffic), in which
 * some GE @p issued or not. A cycle in which no GE is polled, no write
 * becomes drainable and no DRAM lane can be granted only accrues budget
 * and turns the round-robin pointer, so those cycles are jumped with
 * that done for each. While a probe is attached every cycle is visited.
 */
uint64_t
Engine::nextCycle(uint64_t t, bool issued, bool all_issued)
{
    const uint64_t write_at = nextWrite();
    if (all_issued && writableBytes_ == 0) {
        // Only writes still in the pipeline remain: straight to the
        // first one. The model accrues no budget over this tail jump.
        return write_at == kNoWake ? t : std::max(t, write_at);
    }
    // Awake GEs are polled every cycle. Unless all of them wait on
    // wires nobody has produced (not even in this cycle: nothing
    // issued), look no further.
    bool awake = false;
    for (size_t w = 0; w < awake_.size(); ++w) {
        if ((awake_[w] & ~wireBlocked_[w]) != 0 || (awake_[w] && issued))
            return t;
        awake |= awake_[w] != 0;
    }

    uint64_t next = write_at == kNoWake ? kNoWake : std::max(t, write_at);
    if (!sleepers_.empty())
        next = std::min(next, sleepers_.front().first);
    uint64_t cost = costMask_ != 0 ? minLaneCost() : kNoWake;
    if (inputLoad_.wantsGrant())
        cost = std::min(cost, preloadBatch() * inputLoad_.grantBytes);
    if (cost == kNoWake && write_at == kNoWake && stalledForever())
        throwStalled(t);
    if (awake || probe_)
        return t;

    uint64_t c = t;
    double budget = dramBudget_;
    while (c < next) {
        const double b = std::min(budget + perCycle_, budgetCap_);
        if (b >= double(cost))
            break; // a lane can be granted in cycle c
        if (b == budget) {
            c = next; // saved up to the cap: nothing changes until next
            break;
        }
        budget = b;
        ++c;
    }
    dramBudget_ = budget;
    rrPtr_ = (rrPtr_ + (c - t) % lanes_) % lanes_;
    return c;
}

/**
 * With no lane wanting, no write pending and every awake GE stalled on
 * an operand nobody has produced, can any GE ever issue again? Not if
 * every sleeper waits on an OoRW queue with nothing in flight: no grant
 * can fill it, so each wake stalls again and changes nothing. GEs
 * asleep with no wake cycle wait on a wire or a drain, which only an
 * issue or a write can bring.
 */
bool
Engine::stalledForever() const
{
    return std::all_of(sleepers_.begin(), sleepers_.end(),
                       [&](const std::pair<uint64_t, uint32_t> &s) {
                           const GeRunState &ge = ges_[s.second];
                           return ge.sleepStall == &stats_.stallOorwQueue &&
                                  ge.oorQ.inflight.empty();
                       });
}

void
Engine::throwStalled(uint64_t t) const
{
    throw SimStalledError(
        "simulation stalled at cycle " + std::to_string(t) + ": " +
        std::to_string(total_ - stats_.instructions) +
        " instructions wait on wires that no stream, input or import "
        "produces");
}

void
Engine::finalizeTrafficStats(bool completed)
{
    // Analytic totals so accounting is identical across modes. With
    // streams the totals come from the streams themselves, so a shard
    // run counts only its own instructions — instruction, table, OoRW
    // and live-write totals sum to the whole program across shards.
    // Input preload is the exception: every shard core fills its own
    // SWW with the resident input window, so that term is per-core by
    // design (input replication is a real cost of the multi-core
    // split). Without streams (the compiler's scheduling pass) the
    // program is the universe. A completed run issued every live
    // instruction, so it has counted them already.
    uint64_t live = stats_.liveWires;
    if (streams_) {
        uint64_t instrs = 0, tables = 0, oor = 0;
        if (!completed)
            live = 0;
        for (const GeStreams &ge : streams_->ge) {
            instrs += ge.instrs.size();
            tables += ge.tableCount;
            oor += ge.oorAddrs.size();
            if (!completed)
                for (uint32_t idx : ge.instrIdx)
                    live += prog_.instrs[idx].live ? 1 : 0;
        }
        stats_.instrBytes = instrs * encBytes_;
        stats_.tableBytes = tables * kTableBytes;
        stats_.oorAddrBytes = oor * 4;
        stats_.oorDataBytes = oor * kLabelBytes;
    } else {
        stats_.instrBytes = uint64_t(prog_.instrs.size()) * encBytes_;
        stats_.tableBytes = stats_.andOps * kTableBytes;
    }
    stats_.liveWriteBytes = live * kLabelBytes;
    stats_.inputLoadBytes = inputLoad_.totalEntries * kLabelBytes;
}

SimProbeView
Engine::probeView(uint64_t t)
{
    SimProbeView view;
    view.cycle = t;
    view.ges.resize(ges_.size());
    for (size_t g = 0; g < ges_.size(); ++g) {
        GeRunState &ge = ges_[g];
        GeQueueView &v = view.ges[g];
        auto fill = [&](StreamQueue &q, uint64_t &ready, uint64_t &cap,
                        uint64_t &consumed, uint64_t &total) {
            q.drainArrivals(t);
            ready = q.arrived - q.consumed;
            cap = q.capacityEntries;
            consumed = q.consumed;
            total = q.totalEntries;
        };
        fill(ge.instrQ, v.instrReady, v.instrCapacity, v.instrConsumed,
             v.instrTotal);
        fill(ge.tableQ, v.tableReady, v.tableCapacity, v.tableConsumed,
             v.tableTotal);
        fill(ge.oorQ, v.oorReady, v.oorCapacity, v.oorConsumed,
             v.oorTotal);
        if (ge.streams) {
            v.streamPos = ge.cursor;
            v.streamLen = ge.streams->instrs.size();
            if (ge.cursor < ge.streams->instrIdx.size())
                v.nextInstr = ge.streams->instrIdx[ge.cursor];
        }
    }
    view.bankAccesses.resize(banks_.banks());
    for (uint32_t b = 0; b < banks_.banks(); ++b)
        view.bankAccesses[b] = banks_.peek(t, b);
    view.pendingWriteBytes = scheduledWriteBytes_ - drainedWriteBytes_;
    view.stats = &stats_;
    return view;
}

SimStats
Engine::run(StreamSet *record)
{
    setupQueues();

    if (record) {
        record->ge.assign(cfg_.numGes, GeStreams{});
        record->geOf.assign(prog_.instrs.size(), 0);
        record->issueOrder.clear();
        record->issueOrder.reserve(prog_.instrs.size());
    }

    uint64_t t = 0;
    uint64_t issued_total = 0;
    bool completed = true;
    // In replay mode the streams are the universe (a shard run carries
    // a subset of the program); the scheduling pass covers everything.
    total_ = prog_.instrs.size();
    if (!globalDispatch_ && streams_) {
        total_ = 0;
        for (const GeStreams &ge : streams_->ge)
            total_ += ge.instrs.size();
    }
    // Ideal memory: a cycle with no issue jumps to the earliest cycle
    // an operand stall can clear (the hint). With none, and no bank
    // conflict to retry, nothing will ever change.
    const auto idleJump = [&](bool any, uint64_t hint,
                              uint64_t bank_stalls) {
        if (any || hint == kNoWake) {
            if (!any && stats_.stallBank == bank_stalls)
                throwStalled(t);
            return t + 1;
        }
        return std::max(t + 1, hint);
    };

    if (globalDispatch_) {
        // Compiler scheduling pass: one global in-order cursor; every
        // cycle, hand the next ready instructions to non-stalled GEs.
        uint32_t head = 0;
        uint32_t rr = 0;
        while (head < total_) {
            uint64_t hint = kNoWake;
            const uint64_t bank_stalls = stats_.stallBank;
            bool any = false;
            for (uint32_t i = 0, g = rr; i < cfg_.numGes && head < total_;
                 ++i, g = g + 1 == cfg_.numGes ? 0 : g + 1) {
                if (!tryIssue(t, g, ges_[g], head, prog_.instrs[head],
                              &hint))
                    break; // strict in-order dispatch
                if (record) {
                    record->geOf[head] = uint8_t(g);
                    record->ge[g].instrIdx.push_back(head);
                    record->issueOrder.push_back(head);
                }
                ++head;
                any = true;
            }
            rr = rr + 1 == cfg_.numGes ? 0 : rr + 1;
            t = idleJump(any, hint, bank_stalls);
        }
        issued_total = total_;
    } else {
        assert(streams_ && "replay mode requires streams");
        while (issued_total < total_ || writesPending()) {
            if (modelTraffic_)
                dramStep(t);
            while (!sleepers_.empty() && sleepers_.front().first <= t) {
                setAwake(sleepers_.front().second);
                std::pop_heap(sleepers_.begin(), sleepers_.end(),
                              std::greater<>());
                sleepers_.pop_back();
            }
            // Poll the awake GEs in index order; a GE woken meanwhile
            // is polled in this cycle if the loop has yet to reach it.
            uint64_t hint = kNoWake;
            const uint64_t bank_stalls = stats_.stallBank;
            bool any = false;
            for (size_t w = 0; w < awake_.size(); ++w) {
                uint64_t seen = 0; // bits up to the last GE polled
                for (uint64_t bits; (bits = awake_[w] & ~seen) != 0;) {
                    const uint32_t bit = uint32_t(__builtin_ctzll(bits));
                    seen |= (uint64_t(2) << bit) - 1;
                    const uint32_t g = uint32_t(w * 64 + bit);
                    GeRunState &ge = ges_[g];
                    if (ge.sleepStall) {
                        ge.settle(t - 1);
                        ge.sleepStall = nullptr;
                    }
                    wireBlocked_[w] &= ~(uint64_t(1) << bit);
                    const uint32_t idx = ge.streams->instrIdx[ge.cursor];
                    if (!tryIssue(t, g, ge, idx,
                                  ge.streams->instrs[ge.cursor],
                                  sleeps_ ? nullptr : &hint))
                        continue;
                    const GeStreams &gs = *ge.streams;
                    const size_t next = ++ge.cursor;
                    if (next == gs.instrs.size()) {
                        clearAwake(g);
                    } else {
                        // The GEs' interleaved streams outrun the
                        // hardware prefetcher: fetch this GE's next
                        // instruction and its streams ahead now.
                        const size_t last = gs.instrs.size() - 1;
                        __builtin_prefetch(&prog_.instrs[gs.instrIdx[next]]);
                        __builtin_prefetch(&gs.instrs[std::min(next + 8, last)]);
                        __builtin_prefetch(
                            &gs.instrIdx[std::min(next + 16, last)]);
                    }
                    ++issued_total;
                    any = true;
                    if (probe_) {
                        probe_->onIssue(t, g, idx, prog_.instrs[idx],
                                        prog_.outputAddrOf(idx));
                    }
                }
            }
            if (probe_) {
                // Show the stalls of the sleeping GEs' skipped cycles.
                for (GeRunState &ge : ges_)
                    if (ge.sleepStall)
                        ge.settle(t);
                const SimProbeView view = probeView(t);
                if (!probe_->onCycle(view)) {
                    completed = false;
                    break; // aborted: return stats so far
                }
            }
            t = modelTraffic_
                    ? nextCycle(t + 1, any, issued_total == total_)
                    : idleJump(any, hint, bank_stalls);
        }
    }

    finalizeTrafficStats(completed);
    stats_.cycles = std::max({t, lastCompletion_, lastDrainCycle_});
    return stats_;
}

} // namespace

void
SimProbe::onIssue(uint64_t, uint32_t, uint32_t,
                  const HaacInstruction &, uint32_t)
{}

bool
SimProbe::onCycle(const SimProbeView &)
{
    return true;
}

StreamSet
recordSchedule(const HaacProgram &prog, const HaacConfig &cfg)
{
    StreamSet set;
    Engine engine(prog, cfg, nullptr, SimMode::ComputeOnly,
                  /*global_dispatch=*/true);
    engine.run(&set);

    // Derive each GE's local instruction copies and OoRW stream in one
    // pass in program order (global dispatch issues in that order).
    const uint32_t sww = cfg.swwWires();
    for (GeStreams &ge : set.ge)
        ge.instrs.reserve(ge.instrIdx.size());
    for (uint32_t idx = 0; idx < prog.instrs.size(); ++idx) {
        GeStreams &ge = set.ge[set.geOf[idx]];
        HaacInstruction local = prog.instrs[idx];
        const uint32_t base = windowBase(prog.outputAddrOf(idx), sww);
        if (local.a < base) {
            ge.oorAddrs.push_back(local.a);
            local.a = kOorAddr;
        }
        if (local.op != HaacOp::Not && local.b < base) {
            ge.oorAddrs.push_back(local.b);
            local.b = kOorAddr;
        }
        if (local.op == HaacOp::And)
            ++ge.tableCount;
        ge.instrs.push_back(local);
    }
    for (const GeStreams &ge : set.ge)
        set.totalOor += ge.oorAddrs.size();
    return set;
}

SimStats
runSimulation(const HaacProgram &prog, const HaacConfig &cfg,
              const StreamSet &streams, SimMode mode, SimProbe *probe)
{
    Engine engine(prog, cfg, &streams, mode, /*global_dispatch=*/false,
                  nullptr, probe);
    return engine.run(nullptr);
}

ShardSimResult
runShardSimulation(const HaacProgram &prog, const HaacConfig &cfg,
                   const StreamSet &shard, SimMode mode,
                   const RemoteWireEnv &imports,
                   const std::vector<uint32_t> &exports)
{
    Engine engine(prog, cfg, &shard, mode, /*global_dispatch=*/false,
                  &imports);
    ShardSimResult result;
    result.stats = engine.run(nullptr);
    result.exportReady = engine.exportTimes(exports);
    return result;
}

SimStats
simulate(const HaacProgram &prog, const HaacConfig &cfg, SimMode mode)
{
    StreamSet streams = recordSchedule(prog, cfg);
    return runSimulation(prog, cfg, streams, mode);
}

} // namespace haac

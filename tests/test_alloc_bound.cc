/**
 * @file
 * Allocation bounds against a hostile peer. This binary replaces the
 * global operator new with one that tracks the bytes currently live
 * and their high-water mark, so a test can assert that what a peer
 * merely announces is never allocated up front.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/loopback.h"
#include "net/transport.h"
#include "shard/proto.h"
#include "shard/worker.h"

namespace {

std::atomic<size_t> gLive{0};
std::atomic<size_t> gPeak{0};

/** Every block carries its size in a header this far before it. */
constexpr size_t kHeader = alignof(std::max_align_t);

} // namespace

void *
operator new(size_t n)
{
    void *base = std::malloc(n + kHeader);
    if (base == nullptr)
        throw std::bad_alloc();
    *static_cast<size_t *>(base) = n;
    const size_t live = gLive.fetch_add(n) + n;
    size_t peak = gPeak.load();
    while (live > peak && !gPeak.compare_exchange_weak(peak, live)) {
    }
    return static_cast<char *>(base) + kHeader;
}

void *
operator new[](size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    void *base = static_cast<char *>(p) - kHeader;
    gLive.fetch_sub(*static_cast<size_t *>(base));
    std::free(base);
}

void
operator delete[](void *p) noexcept
{
    operator delete(p);
}

void
operator delete(void *p, size_t) noexcept
{
    operator delete(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    operator delete(p);
}

namespace haac {
namespace {

TEST(AllocBound, AnnouncedFrameIsNotAllocatedBeforeItsBytes)
{
    // A peer announces the largest legal frame (2^30 bytes), sends 64
    // of them and closes: the receiver must fail without holding
    // memory for the 2^30 it never got.
    auto [peer, self] = LoopbackTransport::createPair();
    const uint8_t header[4] = {0, 0, 0, 0x40}; // 2^30, little-endian
    ASSERT_EQ(uint64_t(1) << 30, Transport::kMaxFrameBytes);
    peer->writeAll(header, sizeof(header));
    const std::vector<uint8_t> bytes(64, 0xab);
    peer->writeAll(bytes.data(), bytes.size());
    peer.reset();

    const size_t live = gLive.load();
    gPeak.store(live);
    EXPECT_THROW(self->recvFrame(), NetError);
    EXPECT_LT(gPeak.load() - live, size_t(4) << 20);
}

TEST(AllocBound, LargeFramesArriveWhole)
{
    // Frames past the one-allocation size are read in pieces; their
    // bytes must come out exactly as sent, at either side of a piece.
    auto [peer, self] = LoopbackTransport::createPair();
    for (const size_t n : {size_t(1) << 20, (size_t(3) << 20) + 5}) {
        std::vector<uint8_t> sent(n);
        for (size_t i = 0; i < n; ++i)
            sent[i] = uint8_t(i * 131 + (i >> 20));
        peer->sendFrame(sent);
        EXPECT_EQ(self->recvFrame(), sent) << n;
    }
}

/**
 * @p none with the u64 count at which it differs from @p one (the same
 * Job with one element more there) replaced by @p count.
 */
std::vector<uint8_t>
withCount(std::vector<uint8_t> none, const std::vector<uint8_t> &one,
          uint64_t count)
{
    size_t at = 0;
    while (at < none.size() && none[at] == one[at])
        ++at;
    EXPECT_LE(at + 8, none.size());
    for (size_t i = 0; i < 8 && at + i < none.size(); ++i)
        none[at + i] = uint8_t(count >> (8 * i));
    return none;
}

/** Decoding @p frame throws NetError and peaks under 1 MiB. */
void
expectBoundedRefusal(const std::vector<uint8_t> &frame)
{
    const size_t live = gLive.load();
    gPeak.store(live);
    EXPECT_THROW(shard::decodeJob(frame), NetError);
    EXPECT_LT(gPeak.load() - live, size_t(1) << 20);
}

TEST(AllocBound, ShardJobInstructionCountIsBoundedByTheFrame)
{
    // A Job frame of a few dozen bytes announcing 2^20 instructions
    // must fail before it reserves 2^20 of them.
    shard::ShardJob none;
    shard::ShardJob one = none;
    one.program.instrs.emplace_back();
    expectBoundedRefusal(withCount(shard::encodeJob(none),
                                   shard::encodeJob(one),
                                   uint64_t(1) << 20));
}

TEST(AllocBound, ShardJobStreamCountIsBoundedByTheFrame)
{
    // The same for 2^20 GE streams, which would be constructed empty.
    shard::ShardJob none;
    shard::ShardJob one = none;
    one.streams.ge.emplace_back();
    expectBoundedRefusal(withCount(shard::encodeJob(none),
                                   shard::encodeJob(one),
                                   uint64_t(1) << 20));
}

TEST(AllocBound, ShardJobAddressCountIsBoundedBeforeTheEngine)
{
    // A Job of a few hundred bytes announcing 2^25 + 1 wire addresses
    // (no instructions, empty streams) must be refused before the
    // engine sizes 8 B of ready cycles per address, 256 MiB.
    shard::ShardJob job;
    job.program.numInputs = uint32_t(1) << 25;
    job.streams.ge.resize(job.config.numGes);
    auto [coordinator, worker] = LoopbackTransport::createPair();
    coordinator->sendFrame(shard::encodeJob(job));
    coordinator->sendFrame(shard::encodeRound({}));
    coordinator->sendFrame(shard::encodeQuit());

    const size_t live = gLive.load();
    gPeak.store(live);
    EXPECT_THROW(shard::runShardWorkerLoop(*worker), NetError);
    EXPECT_LT(gPeak.load() - live, size_t(1) << 20);
}

} // namespace
} // namespace haac

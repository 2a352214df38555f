#include "net/net_channel.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace haac {

NetChannel::NetChannel(Transport &transport, size_t flush_threshold)
    : transport_(&transport),
      flushThreshold_(flush_threshold > 0 ? flush_threshold : 1)
{
    outBuffer_.reserve(flushThreshold_);
}

NetChannel::~NetChannel()
{
    // Best-effort: don't strand buffered protocol bytes, but a
    // destructor must not throw if the peer is already gone.
    try {
        flush();
    } catch (const NetError &) {
    }
}

void
NetChannel::flush()
{
    if (outBuffer_.empty())
        return;
    transport_->sendFrame(outBuffer_);
    outBuffer_.clear();
}

void
NetChannel::swapInput(std::vector<uint8_t> &frame, size_t &cursor)
{
    inBuffer_.swap(frame);
    std::swap(inCursor_, cursor);
}

void
NetChannel::writeBytes(const uint8_t *data, size_t n)
{
    outBuffer_.insert(outBuffer_.end(), data, data + n);
    if (outBuffer_.size() >= flushThreshold_)
        flush();
}

void
NetChannel::readBytes(uint8_t *data, size_t n)
{
    // Never block on a read while holding bytes the peer may need
    // first (protocol turnaround).
    if (!outBuffer_.empty())
        flush();
    size_t got = 0;
    while (got < n) {
        if (inCursor_ == inBuffer_.size()) {
            transport_->recvFrame(inBuffer_);
            inCursor_ = 0;
            continue;
        }
        const size_t take =
            std::min(n - got, inBuffer_.size() - inCursor_);
        std::memcpy(data + got, inBuffer_.data() + inCursor_, take);
        inCursor_ += take;
        got += take;
    }
}

} // namespace haac

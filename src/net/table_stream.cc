#include "net/table_stream.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <pthread.h>
#include <sys/mman.h>

namespace haac {

namespace {

/**
 * A thread for one node's table phase, on a stack it maps itself and
 * unmaps after the join. glibc caches the stack of a finished
 * std::thread together with thread-control data it allocated from the
 * creating thread's heap, and a block that outlives the session there
 * can pin the top of that heap above the session's freed memory, which
 * glibc then never trims (docs/ARCHITECTURE.md §6 has the dotprod-upload
 * numbers). A caller-supplied stack is never cached, so a joined thread
 * leaves nothing allocated behind.
 */
class PhaseThread
{
  public:
    explicit PhaseThread(std::function<void()> body)
        : body_(std::move(body))
    {
        void *map = mmap(nullptr, kGuard + kStack, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
        if (map == MAP_FAILED)
            throw std::system_error(errno, std::generic_category(),
                                    "table stream: thread stack");
        map_ = static_cast<uint8_t *>(map);
        mprotect(map_, kGuard, PROT_NONE); // overflow faults, not corrupts
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setstack(&attr, map_ + kGuard, kStack);
        const int rc = pthread_create(&thread_, &attr, &PhaseThread::entry,
                                      this);
        pthread_attr_destroy(&attr);
        if (rc != 0) {
            munmap(map_, kGuard + kStack);
            throw std::system_error(rc, std::generic_category(),
                                    "table stream: thread start");
        }
    }

    ~PhaseThread()
    {
        join();
        munmap(map_, kGuard + kStack);
    }

    PhaseThread(const PhaseThread &) = delete;
    PhaseThread &operator=(const PhaseThread &) = delete;

    void
    join()
    {
        if (!joined_)
            pthread_join(thread_, nullptr);
        joined_ = true;
    }

  private:
    static constexpr size_t kGuard = 4096;
    /** glibc's usual default; only touched pages become resident, and
     *  the thread sanitizer wants ~0.9 MiB of any stack for itself. */
    static constexpr size_t kStack = size_t(8) << 20;

    static void *
    entry(void *self)
    {
        static_cast<PhaseThread *>(self)->body_();
        return nullptr;
    }

    std::function<void()> body_;
    uint8_t *map_ = nullptr;
    pthread_t thread_{};
    bool joined_ = false;
};

void
sendTables(Transport &transport, const GarbledTable *tables, size_t count)
{
    transport.sendFrame(reinterpret_cast<const uint8_t *>(tables),
                        count * kTableBytes);
}

} // namespace

/**
 * The writer thread and its two segment buffers. The walk fills
 * buffer filled % 2 while the thread sends buffer sent % 2; a buffer
 * is free again once it has been sent (filled - sent < 2).
 */
struct TableFrameWriter::Writer
{
    std::mutex mutex;
    std::condition_variable changed;
    std::vector<GarbledTable> buffers[2];
    size_t counts[2] = {0, 0};
    uint64_t filled = 0;
    uint64_t sent = 0;
    bool closing = false;   ///< send what is queued, then stop
    bool abandoned = false; ///< stop now
    std::exception_ptr error;
    std::unique_ptr<PhaseThread> thread;

    void
    run(Transport &transport)
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            changed.wait(lock, [&] {
                return abandoned || closing || sent < filled;
            });
            if (abandoned || sent == filled)
                return;
            const size_t k = size_t(sent % 2);
            lock.unlock();
            try {
                sendTables(transport, buffers[k].data(), counts[k]);
            } catch (...) {
                lock.lock();
                error = std::current_exception();
                changed.notify_all();
                return;
            }
            lock.lock();
            ++sent;
            changed.notify_all();
        }
    }
};

TableFrameWriter::TableFrameWriter(Transport &transport,
                                   size_t segment_tables, bool threaded)
    : TableSegmentSink(segment_tables), transport_(transport)
{
    if (!threaded) {
        buffer_.resize(segmentTables());
        return;
    }
    writer_ = std::make_unique<Writer>();
    for (std::vector<GarbledTable> &b : writer_->buffers)
        b.resize(segmentTables());
    writer_->thread = std::make_unique<PhaseThread>(
        [this] { writer_->run(transport_); });
}

TableFrameWriter::~TableFrameWriter()
{
    if (writer_ == nullptr || writer_->thread == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(writer_->mutex);
        writer_->abandoned = true;
    }
    writer_->changed.notify_all();
    writer_->thread->join();
}

GarbledTable *
TableFrameWriter::lend()
{
    if (writer_ == nullptr)
        return buffer_.data();
    Writer &w = *writer_;
    std::unique_lock<std::mutex> lock(w.mutex);
    w.changed.wait(lock,
                   [&] { return w.error || w.filled - w.sent < 2; });
    if (w.error)
        std::rethrow_exception(w.error);
    return w.buffers[w.filled % 2].data();
}

void
TableFrameWriter::full(size_t count)
{
    if (writer_ == nullptr) {
        sendTables(transport_, buffer_.data(), count);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(writer_->mutex);
        writer_->counts[writer_->filled % 2] = count;
        ++writer_->filled;
    }
    writer_->changed.notify_all();
}

void
TableFrameWriter::finish()
{
    if (writer_ == nullptr || writer_->thread == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(writer_->mutex);
        writer_->closing = true;
    }
    writer_->changed.notify_all();
    writer_->thread->join();
    if (writer_->error)
        std::rethrow_exception(writer_->error);
}

void
sendTableFrames(Transport &transport,
                const std::vector<GarbledTable> &tables,
                size_t segment_tables)
{
    const size_t segment = std::max<size_t>(segment_tables, 1);
    for (size_t at = 0; at < tables.size(); at += segment)
        sendTables(transport, tables.data() + at,
                   std::min(segment, tables.size() - at));
}

/**
 * The reader thread: it receives frames until the stream's bytes have
 * arrived, at most two ahead of the walk, into buffers the walk hands
 * back as it moves on.
 */
struct TableFrameReader::Reader
{
    static constexpr size_t kAhead = 2;

    std::mutex mutex;
    std::condition_variable changed;
    std::deque<std::vector<uint8_t>> ready;
    std::vector<std::vector<uint8_t>> spare;
    bool stopped = false;
    std::exception_ptr error;
    std::unique_ptr<PhaseThread> thread;

    void
    run(Transport &transport, uint64_t bytes)
    {
        while (bytes > 0) {
            std::vector<uint8_t> frame;
            {
                std::unique_lock<std::mutex> lock(mutex);
                changed.wait(lock, [&] {
                    return stopped || ready.size() < kAhead;
                });
                if (stopped)
                    return;
                if (!spare.empty()) {
                    frame = std::move(spare.back());
                    spare.pop_back();
                }
            }
            try {
                transport.recvFrame(frame);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                error = std::current_exception();
                changed.notify_all();
                return;
            }
            bytes -= std::min<uint64_t>(bytes, frame.size());
            std::lock_guard<std::mutex> lock(mutex);
            ready.push_back(std::move(frame));
            changed.notify_all();
        }
    }
};

TableFrameReader::TableFrameReader(NetChannel &chan, uint64_t tables,
                                   bool threaded)
    : chan_(chan), tablesLeft_(tables)
{
    chan_.swapInput(frame_, cursor_);
    const uint64_t unread = frame_.size() - cursor_;
    const uint64_t bytes = tables * kTableBytes;
    if (!threaded || unread >= bytes)
        return;
    reader_ = std::make_unique<Reader>();
    reader_->thread = std::make_unique<PhaseThread>(
        [this, owed = bytes - unread] {
            reader_->run(chan_.transport(), owed);
        });
}

TableFrameReader::~TableFrameReader()
{
    if (reader_ == nullptr || reader_->thread == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(reader_->mutex);
        reader_->stopped = true;
    }
    reader_->changed.notify_all();
    reader_->thread->join();
}

void
TableFrameReader::fetch()
{
    if (reader_ == nullptr) {
        chan_.transport().recvFrame(frame_);
    } else {
        Reader &r = *reader_;
        std::unique_lock<std::mutex> lock(r.mutex);
        r.changed.wait(lock, [&] { return !r.ready.empty() || r.error; });
        if (r.ready.empty())
            std::rethrow_exception(r.error);
        r.spare.push_back(std::move(frame_));
        frame_ = std::move(r.ready.front());
        r.ready.pop_front();
        r.changed.notify_all();
    }
    cursor_ = 0;
}

const uint8_t *
TableFrameReader::next(size_t &count)
{
    if (tablesLeft_ == 0)
        throw std::logic_error("TableFrameReader: read past the stream");
    while (cursor_ == frame_.size())
        fetch();
    const size_t whole = (frame_.size() - cursor_) / kTableBytes;
    if (whole > 0) {
        count = size_t(std::min<uint64_t>(whole, tablesLeft_));
        const uint8_t *run = frame_.data() + cursor_;
        cursor_ += count * kTableBytes;
        tablesLeft_ -= count;
        return run;
    }
    // A table split across frames (any framing is legal).
    for (size_t got = 0; got < kTableBytes;) {
        if (cursor_ == frame_.size()) {
            fetch();
            continue;
        }
        const size_t take =
            std::min(kTableBytes - got, frame_.size() - cursor_);
        std::memcpy(split_ + got, frame_.data() + cursor_, take);
        cursor_ += take;
        got += take;
    }
    count = 1;
    --tablesLeft_;
    return split_;
}

void
TableFrameReader::finish()
{
    if (reader_ != nullptr && reader_->thread != nullptr)
        reader_->thread->join();
    if (tablesLeft_ != 0)
        throw std::logic_error("TableFrameReader: stream not read out");
    chan_.swapInput(frame_, cursor_);
}

} // namespace haac

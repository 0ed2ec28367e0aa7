// Calendar queue for simulator message events.
//
// A single binary heap over millions of in-flight messages costs a cache
// miss per sift level; bucketing events into fixed-width time slots keeps
// each slot's heap small and cache-resident while preserving exact
// (timestamp, sequence) ordering. Events beyond the ring's horizon go to a
// small overflow heap that is consulted alongside the ring.
//
// The horizon is longer than most runs, so a ring slot is rarely revisited:
// a drained bucket's storage moves to a spare list as the cursor passes it,
// and an empty bucket takes its storage from there on its first entry. The
// queue thus retains about as much storage as it has events in flight,
// not one entry for every event ever scheduled.

#ifndef CLANDAG_SIM_MSG_QUEUE_H_
#define CLANDAG_SIM_MSG_QUEUE_H_

#include <algorithm>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace clandag {

struct MsgQueueEntry {
  TimeMicros at;
  uint64_t seq;
  uint32_t slot;
};

class MsgCalendarQueue {
 public:
  MsgCalendarQueue() : ring_(kNumBuckets) {}

  void Push(const MsgQueueEntry& entry) {
    size_t bucket = static_cast<size_t>(entry.at / kBucketWidth);
    if (bucket < cur_) {
      bucket = cur_;  // Same-instant event while draining the cursor bucket.
    }
    ++count_;
    if (bucket >= cur_ + kNumBuckets) {
      overflow_.push(entry);
      return;
    }
    std::vector<MsgQueueEntry>& v = Bucket(bucket);
    v.push_back(entry);
    ++ring_count_;
    if (bucket == cur_ && cur_heapified_) {
      std::push_heap(v.begin(), v.end(), Later{});
    }
  }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  // Entries' worth of storage held by the ring and the spare list (the
  // overflow heap is not counted). Walks every slot: for tests, not the
  // event loop.
  size_t RetainedCapacity() const {
    size_t total = 0;
    for (const std::vector<MsgQueueEntry>& v : ring_) {
      total += v.capacity();
    }
    for (const std::vector<MsgQueueEntry>& v : spares_) {
      total += v.capacity();
    }
    return total;
  }

  // Earliest entry, if any.
  bool Peek(MsgQueueEntry& out) {
    AdvanceCursor();
    const bool have_ring = ring_count_ > 0 && !CurBucket().empty();
    const bool have_overflow = !overflow_.empty();
    if (!have_ring && !have_overflow) {
      return false;
    }
    if (have_ring && (!have_overflow || Earlier(CurBucket().front(), overflow_.top()))) {
      out = CurBucket().front();
    } else {
      out = overflow_.top();
    }
    return true;
  }

  // Removes and returns the earliest entry (must exist).
  MsgQueueEntry Pop() {
    MsgQueueEntry out{};
    CLANDAG_CHECK(Peek(out));
    std::vector<MsgQueueEntry>& v = CurBucket();
    if (ring_count_ > 0 && !v.empty() && v.front().seq == out.seq && v.front().at == out.at) {
      std::pop_heap(v.begin(), v.end(), Later{});
      v.pop_back();
      --ring_count_;
    } else {
      overflow_.pop();
    }
    --count_;
    return out;
  }

 private:
  static constexpr TimeMicros kBucketWidth = 1024;  // ~1 ms.
  static constexpr size_t kNumBuckets = 16384;      // ~16.7 s horizon.

  struct Later {
    bool operator()(const MsgQueueEntry& a, const MsgQueueEntry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  static bool Earlier(const MsgQueueEntry& a, const MsgQueueEntry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  std::vector<MsgQueueEntry>& CurBucket() { return ring_[cur_ % kNumBuckets]; }

  // The ring slot of `bucket`, given spare storage if it holds none.
  std::vector<MsgQueueEntry>& Bucket(size_t bucket) {
    std::vector<MsgQueueEntry>& v = ring_[bucket % kNumBuckets];
    if (v.capacity() == 0 && !spares_.empty()) {
      v.swap(spares_.back());
      spares_.pop_back();
    }
    return v;
  }

  // Moves the drained cursor bucket's storage, if any, onto the spare list.
  void ReleaseCurBucket() {
    std::vector<MsgQueueEntry>& v = CurBucket();
    if (v.capacity() > 0) {
      // bounded: a storage block exists only while its slot holds entries or
      // the cursor, so the spare list never outgrows kNumBuckets + 1.
      spares_.emplace_back().swap(v);
    }
  }

  void AdvanceCursor() {
    if (ring_count_ == 0) {
      // Ring drained; if overflow items have come within a fresh horizon,
      // restart the ring at the overflow's earliest bucket.
      if (!overflow_.empty()) {
        const size_t bucket = static_cast<size_t>(overflow_.top().at / kBucketWidth);
        if (bucket > cur_) {
          ReleaseCurBucket();
          cur_ = bucket;
          cur_heapified_ = false;
          DrainOverflowIntoRing();
        }
      }
      return;
    }
    while (CurBucket().empty()) {
      ReleaseCurBucket();
      ++cur_;
      cur_heapified_ = false;
    }
    if (!cur_heapified_) {
      std::vector<MsgQueueEntry>& v = CurBucket();
      std::make_heap(v.begin(), v.end(), Later{});
      cur_heapified_ = true;
    }
  }

  void DrainOverflowIntoRing() {
    // Move overflow entries now inside the horizon into the ring.
    while (!overflow_.empty()) {
      const size_t bucket = static_cast<size_t>(overflow_.top().at / kBucketWidth);
      if (bucket >= cur_ + kNumBuckets) {
        break;
      }
      Bucket(bucket).push_back(overflow_.top());
      ++ring_count_;
      overflow_.pop();
    }
    // Note: overflow_ is a heap ordered by time, so entries still outside
    // the horizon stay put and are reconsidered as the cursor advances.
  }

  std::vector<std::vector<MsgQueueEntry>> ring_;
  // Storage of drained buckets, each cleared, awaiting a slot's first entry.
  std::vector<std::vector<MsgQueueEntry>> spares_;
  size_t cur_ = 0;
  bool cur_heapified_ = false;
  size_t ring_count_ = 0;
  size_t count_ = 0;
  std::priority_queue<MsgQueueEntry, std::vector<MsgQueueEntry>, Later> overflow_;
};

}  // namespace clandag

#endif  // CLANDAG_SIM_MSG_QUEUE_H_

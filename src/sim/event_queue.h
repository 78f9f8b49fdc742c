#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

namespace rd::sim {

/// Simulated clock: milliseconds since scenario start.
using SimTime = std::uint64_t;

/// One routing-protocol advertisement entry as it travels an edge: the
/// sender-side domain position, the sender's metric, and the instance the
/// sender learned the route from (for split horizon with poisoned reverse,
/// resolved per receiving edge at delivery time). `kLocalVia` marks
/// locally-originated entries, which are never poisoned.
struct AdvEntry {
  std::uint32_t pos = 0;
  std::uint16_t metric = 0;
  std::uint32_t via_instance = kLocalVia;

  static constexpr std::uint32_t kLocalVia = 0xFFFFFFFFu;
};

/// Scheduled occurrences, ordered by (time, sequence). The sequence number
/// is assigned at push, so same-timestamp events fire in schedule order —
/// the total order every run of a seeded scenario reproduces exactly.
struct Event {
  enum class Kind : std::uint8_t {
    kPeriodic,   // instance's periodic full-table advertisement timer
    kTriggered,  // pending triggered update for an instance
    kDeliver,    // an advertisement arriving over one edge
    kFail,       // scenario: routers go down
    kRecover,    // scenario: routers come back
  };

  SimTime at_ms = 0;
  std::uint64_t seq = 0;
  Kind kind = Kind::kPeriodic;
  std::uint32_t instance = 0;  // kPeriodic / kTriggered
  std::uint32_t edge = 0;      // kDeliver
  /// Snapshot of the sender's table, shared by every edge the
  /// advertisement fans out over (per-edge filtering happens at delivery).
  std::shared_ptr<const std::vector<AdvEntry>> payload;
};

/// Binary min-heap on (at_ms, seq). push/pop are the only operations the
/// simulator needs; seq is stamped here so callers cannot get it wrong.
class EventQueue {
 public:
  void push(Event event) {
    event.seq = next_seq_++;
    heap_.push_back(std::move(event));
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  const Event& top() const noexcept { return heap_.front(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

 private:
  /// std::push_heap builds a max-heap; "later" as the comparator puts the
  /// earliest (time, seq) on top.
  static bool later(const Event& a, const Event& b) noexcept {
    return a.at_ms != b.at_ms ? a.at_ms > b.at_ms : a.seq > b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Hashed timer wheel for the per-route invalidation and garbage-collect
/// deadlines (DESIGN.md §15). Refreshing a timer is the hot operation —
/// every periodic advertisement refreshes every delivered route — so a
/// refresh only moves the deadline the entry's node is checked against
/// (in the simulator, through the entry's refresh epoch); the wheel node
/// stays where it was and is lazily revalidated when its slot comes due:
/// stale generation → dropped, deadline moved forward → reinserted at the
/// new slot. Each live timer keeps exactly one node.
class TimerWheel {
 public:
  struct Node {
    std::uint32_t instance = 0;
    std::uint32_t pos = 0;
    std::uint32_t gen = 0;
  };

  /// `max_delay_ms` must bound the longest single deadline delta ever
  /// scheduled (the larger of the invalid and gc timers); the ring is
  /// rounded up to a power of two of ~1s granules so a reinserted node can
  /// never collide with the granule currently being drained.
  explicit TimerWheel(SimTime max_delay_ms) {
    std::size_t slots = 2;
    while (slots * kGranularityMs < max_delay_ms + 2 * kGranularityMs) {
      slots *= 2;
    }
    slots_.resize(slots);
  }

  void insert(SimTime deadline_ms, const Node& node) {
    slots_[(deadline_ms / kGranularityMs) & (slots_.size() - 1)].push_back(
        node);
    ++count_;
  }

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  /// End of the granule the cursor sits on: the earliest simulated time at
  /// which advance_one() may fire anything. The simulator's main loop
  /// treats this as one more event source and interleaves it with the
  /// EventQueue in time order, so a fired timer can never schedule work
  /// into the past.
  SimTime next_granule_end() const noexcept {
    return (cursor_ + 1) * kGranularityMs;
  }

  /// With no pending nodes the cursor may jump to `now`'s granule, so the
  /// next insert lands within one ring span of it — skipping the granule-
  /// by-granule crawl across idle stretches. Safe only when empty: there
  /// is nothing behind the cursor to drain.
  void catch_up(SimTime now) noexcept {
    if (count_ == 0 && now / kGranularityMs > cursor_) {
      cursor_ = now / kGranularityMs;
    }
  }

  /// Drains the cursor granule, invoking `fire(node, granule_end)` for its
  /// nodes, and steps the cursor. `fire` decides staleness (generation
  /// check, deadline moved forward) and may call insert() to repost — a
  /// refreshed deadline is strictly past the drained granule's end, so
  /// reposts always land in a later granule. Expiry is thus quantized to
  /// the granule (≤ ~1s late), identically on every run.
  template <typename Fn>
  void advance_one(Fn&& fire) {
    auto& slot = slots_[cursor_ & (slots_.size() - 1)];
    if (!slot.empty()) {
      scratch_.clear();
      scratch_.swap(slot);  // reposts go to the (now empty) live slots
      count_ -= scratch_.size();
      const SimTime granule_end = (cursor_ + 1) * kGranularityMs;
      for (const Node& node : scratch_) fire(node, granule_end);
    }
    ++cursor_;
  }

  static constexpr SimTime kGranularityMs = 1024;

 private:
  std::vector<std::vector<Node>> slots_;
  std::vector<Node> scratch_;
  std::size_t count_ = 0;
  std::uint64_t cursor_ = 0;  // granule index: all granules < cursor_ drained
};

}  // namespace rd::sim

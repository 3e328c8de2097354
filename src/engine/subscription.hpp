// Epoch publication fan-out: the signal the read plane rides.
//
//   SldService::flush() ── publish ──> SubscriptionHub::notify(snap)
//                                           │ (per registered callback)
//                                           v
//   QueryBroker dispatcher   wakes: AtLeastEpoch waiters unpark, the
//                            standing per-tau ThresholdViews refresh
//                            incrementally (cluster_view.hpp)
//
// Threading: notify() runs on whichever thread published the flush
// (the background writer or a caller of flush()), with the hub lock
// held — callbacks must not re-enter add/remove/notify, and remove()
// returning guarantees no further invocation (safe destruction).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "engine/epoch.hpp"

namespace dynsld::engine {

/// Publication fan-out point between the service's flush path and
/// registered callbacks (the service's QueryBroker is one).
class SubscriptionHub {
 public:
  /// Handle identifying one registration (the remove() key).
  using Token = uint64_t;
  /// Publish callback; runs on the flushing thread under the hub lock.
  using Callback = std::function<void(const EpochManager::Snap&)>;

  /// Register; the callback fires on every subsequent publish.
  Token add(Callback cb) {
    std::lock_guard<std::mutex> lk(mu_);
    Token t = next_++;
    subs_.push_back(Entry{t, std::move(cb)});
    return t;
  }

  /// Unregister. Serialized with notify(): once remove() returns the
  /// callback will never be invoked again, so the subscriber can be
  /// destroyed.
  void remove(Token t) {
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < subs_.size(); ++i) {
      if (subs_[i].token == t) {
        subs_.erase(subs_.begin() + i);
        return;
      }
    }
  }

  /// Deliver `snap` to every registered callback (on the calling
  /// thread, under the hub lock — see the header's threading contract).
  /// Deliberate tradeoff: holding the lock makes remove() a hard
  /// barrier (safe teardown), at the cost that a slow callback delays
  /// the others, concurrent flushes' notifies, and removals — keep
  /// callbacks cheap.
  void notify(const EpochManager::Snap& snap) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& e : subs_) e.cb(snap);
  }

 private:
  struct Entry {
    Token token;
    Callback cb;
  };

  mutable std::mutex mu_;
  Token next_ = 1;
  std::vector<Entry> subs_;
};

}  // namespace dynsld::engine

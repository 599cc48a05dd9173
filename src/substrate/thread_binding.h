// Per-thread counter domain of a substrate: the simulated machine (or
// rank) a thread bound before creating its contexts, falling back to the
// primary one the substrate was constructed over.
#pragma once

#include <mutex>
#include <thread>
#include <unordered_map>

namespace papirepro::papi {

template <typename T>
class ThreadBinding {
 public:
  explicit ThreadBinding(T primary) : primary_(primary) {}

  /// Binds `value` for the calling thread; a thread may rebind.
  void bind(T value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    bound_[std::this_thread::get_id()] = value;
  }
  void unbind() {
    const std::lock_guard<std::mutex> lock(mutex_);
    bound_.erase(std::this_thread::get_id());
  }
  /// The calling thread's binding, else the primary.
  T current() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = bound_.find(std::this_thread::get_id());
    return it != bound_.end() ? it->second : primary_;
  }
  T primary() const noexcept { return primary_; }

 private:
  const T primary_;
  mutable std::mutex mutex_;
  std::unordered_map<std::thread::id, T> bound_;
};

}  // namespace papirepro::papi

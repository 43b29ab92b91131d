#include "fleet/migration.hpp"

namespace fiat::fleet {

void Handoff::complete(std::uint64_t ordinal, double sim_ts) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return;
    done_ = true;
    cut_.ok = true;
    cut_.ordinal = ordinal;
    cut_.sim_ts = sim_ts;
  }
  cv_.notify_all();
}

void Handoff::abandon() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return;
    done_ = true;
    cut_.ok = false;
  }
  cv_.notify_all();
}

Handoff::Cut Handoff::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return cut_;
}

double Handoff::age_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       created_)
      .count();
}

}  // namespace fiat::fleet

// Settle bookkeeping for adapters whose native registrations complete
// asynchronously (a Jini lease join, a HAVi registry record): track()
// hands out the completion callback for one registration request, and
// settle() defers its `done` until every tracked request has completed.
//
// A request's completion may run after the adapter is gone (a Jini
// proxy fails its pending calls when the adapter's teardown destroys
// it), so the counters live in state the callbacks share. Declare the
// tracker after whatever owns those requests: it is then destroyed
// first, and its destructor drops the waiters so no late completion
// calls into an owner that is being torn down.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/adapter.hpp"

namespace hcm::core {

class RegistrationTracker {
 public:
  RegistrationTracker() : state_(std::make_shared<State>()) {}
  ~RegistrationTracker() { state_->waiters.clear(); }
  RegistrationTracker(const RegistrationTracker&) = delete;
  RegistrationTracker& operator=(const RegistrationTracker&) = delete;

  // Counts one request as outstanding; the returned callback marks it
  // complete (whatever its status) and must be called exactly once.
  [[nodiscard]] std::function<void(const Status&)> track() {
    ++state_->outstanding;
    return [state = state_](const Status&) {
      if (--state->outstanding != 0) return;
      auto waiters = std::move(state->waiters);
      state->waiters.clear();
      for (auto& w : waiters) w();
    };
  }

  void settle(MiddlewareAdapter::SettledFn done) {
    if (state_->outstanding == 0) {
      done();
      return;
    }
    state_->waiters.push_back(std::move(done));
  }

 private:
  struct State {
    std::size_t outstanding = 0;
    std::vector<MiddlewareAdapter::SettledFn> waiters;
  };
  std::shared_ptr<State> state_;
};

}  // namespace hcm::core

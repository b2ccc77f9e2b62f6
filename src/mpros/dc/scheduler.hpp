#pragma once
// The DC event scheduler (paper §5.8: "The DC software is coordinated by an
// event scheduler. It coordinates standard vibration test[s] ... wavelet
// and neural network testing ... and state based feature recognition
// routines").
//
// Tasks are periodic; run_until() fires every task due up to a deadline in
// time order, so interleaving between tasks with different periods matches
// a real cyclic executive. The PDME "or any other client can command the
// scheduler to conduct another test" — request_now() does that.

#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "mpros/common/clock.hpp"

namespace mpros::dc {

class EventScheduler {
 public:
  using Task = std::function<void(SimTime now)>;
  using TaskId = std::size_t;

  /// Register a periodic task; first run at `first_due`.
  TaskId add_periodic(std::string name, SimTime first_due, SimTime period,
                      Task task);

  /// Queue an extra one-shot run of an existing task, stamped `at` (the
  /// caller's current time), at the next run_until() whose deadline covers
  /// it (the §5.8 on-demand test command).
  void request_now(TaskId id, SimTime at);

  /// Change a task's period at runtime (the control plane's report-rate /
  /// heartbeat-rate knob). Takes effect at the task's next reschedule: the
  /// already-queued due entry keeps its slot, every later one uses the new
  /// period.
  void set_period(TaskId id, SimTime period);
  [[nodiscard]] SimTime period(TaskId id) const;

  /// Fire everything due up to and including `deadline`, in time order.
  /// Returns the number of task executions.
  std::size_t run_until(SimTime deadline);

  [[nodiscard]] const std::string& task_name(TaskId id) const;

 private:
  struct TaskRecord {
    std::string name;
    SimTime period;
    Task task;
  };
  struct Due {
    SimTime at;
    std::uint64_t sequence;
    TaskId id;
    bool reschedule;
  };
  struct Later {
    bool operator()(const Due& a, const Due& b) const {
      if (a.at != b.at) return b.at < a.at;
      return b.sequence < a.sequence;
    }
  };

  std::vector<TaskRecord> tasks_;
  std::priority_queue<Due, std::vector<Due>, Later> queue_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace mpros::dc

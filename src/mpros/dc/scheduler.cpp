#include "mpros/dc/scheduler.hpp"

#include "mpros/common/assert.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dc {

EventScheduler::TaskId EventScheduler::add_periodic(std::string name,
                                                    SimTime first_due,
                                                    SimTime period,
                                                    Task task) {
  MPROS_EXPECTS(task != nullptr);
  MPROS_EXPECTS(period.micros() > 0);
  tasks_.push_back(TaskRecord{std::move(name), period, std::move(task)});
  const TaskId id = tasks_.size() - 1;
  queue_.push(Due{first_due, next_sequence_++, id, true});
  return id;
}

void EventScheduler::request_now(TaskId id, SimTime at) {
  MPROS_EXPECTS(id < tasks_.size());
  queue_.push(Due{at, next_sequence_++, id, false});
}

void EventScheduler::set_period(TaskId id, SimTime period) {
  MPROS_EXPECTS(id < tasks_.size());
  MPROS_EXPECTS(period.micros() > 0);
  tasks_[id].period = period;
}

SimTime EventScheduler::period(TaskId id) const {
  MPROS_EXPECTS(id < tasks_.size());
  return tasks_[id].period;
}

std::size_t EventScheduler::run_until(SimTime deadline) {
  static telemetry::Counter& task_runs =
      telemetry::Registry::instance().counter("dc.scheduler_task_runs");
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    const Due due = queue_.top();
    queue_.pop();
    // Every run, on-demand ones included, is stamped with its own due time.
    const SimTime at = due.at;
    tasks_[due.id].task(at);
    ++executed;
    task_runs.inc();
    if (due.reschedule) {
      queue_.push(Due{at + tasks_[due.id].period, next_sequence_++, due.id,
                      true});
    }
  }
  return executed;
}

const std::string& EventScheduler::task_name(TaskId id) const {
  MPROS_EXPECTS(id < tasks_.size());
  return tasks_[id].name;
}

}  // namespace mpros::dc

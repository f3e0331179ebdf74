#include "swmpi/runtime.hpp"

#include <exception>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace swhkm::swmpi {

void run_spmd(int nranks, const std::function<void(Comm&)>& body,
              FaultPlan* faults, telemetry::MetricsRegistry* metrics) {
  SWHKM_REQUIRE(nranks >= 1, "need at least one rank");
  // A blackholed send with no watchdog is an undetectable deadlock: the
  // receiver blocks forever on a message nobody will ever push. Reject the
  // schedule up front instead of hanging the test that armed it.
  SWHKM_REQUIRE(
      faults == nullptr || !faults->has_armed_drops() ||
          faults->watchdog_timeout().count() > 0,
      "a FaultPlan with armed drop_send events needs a watchdog() timeout — "
      "a dropped message with no recv watchdog deadlocks the receiver "
      "silently");
  std::vector<Comm> comms = Comm::create_world(nranks, faults, metrics);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  auto run_rank = [&](int rank) {
    Comm& comm = comms[static_cast<std::size_t>(rank)];
    try {
      body(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
      // Unblock peers waiting on this rank.
      comm.abort_world();
    }
    comm.depart();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks - 1));
  for (int rank = 1; rank < nranks; ++rank) {
    threads.emplace_back(run_rank, rank);
  }
  run_rank(0);
  for (auto& thread : threads) {
    thread.join();
  }

  // Prefer the failure that explains the run: a real error beats an
  // injected/watchdog fault (the deliberate root cause of a fault drill),
  // which beats the secondary "aborted" faults poisoned peers report.
  std::exception_ptr first_real;
  std::exception_ptr first_primary_fault;
  std::exception_ptr first_any;
  for (const auto& error : errors) {
    if (!error) {
      continue;
    }
    if (!first_any) {
      first_any = error;
    }
    try {
      std::rethrow_exception(error);
    } catch (const InjectedFault&) {
      if (!first_primary_fault) {
        first_primary_fault = error;
      }
    } catch (const WatchdogTimeout&) {
      if (!first_primary_fault) {
        first_primary_fault = error;
      }
    } catch (const CorruptMessageError&) {
      // A failed CRC handshake is the root cause of its drill, like an
      // injected crash — peers that died aborting behind it are secondary.
      if (!first_primary_fault) {
        first_primary_fault = error;
      }
    } catch (const SilentCorruptionError&) {
      // Same standing for the compute-layer SDC detectors.
      if (!first_primary_fault) {
        first_primary_fault = error;
      }
    } catch (const RuntimeFault&) {
      // likely a secondary abort; keep looking
    } catch (...) {
      if (!first_real) {
        first_real = error;
      }
    }
  }
  // Injection activity belongs in the metrics snapshot (and report.json)
  // alongside the detection counters, not only behind getters. Exported
  // before rethrowing so failed legs report what was injected into them.
  if (faults != nullptr && metrics != nullptr) {
    faults->export_fired(metrics->host_shard());
  }

  if (first_real) {
    std::rethrow_exception(first_real);
  }
  if (first_primary_fault) {
    std::rethrow_exception(first_primary_fault);
  }
  if (first_any) {
    std::rethrow_exception(first_any);
  }
}

}  // namespace swhkm::swmpi

// Holds stream-engine results against the test-only reference oracle.
//
// Every stream's decision log and closing planned energy must be bitwise
// those of a reference::ReferencePd fed the same jobs in the same order.
// The oracle replays exactly the arrivals the stream's log records (looked
// up by job id), so ops the engine contained as errors do not desynchronize
// the comparison. Results must come from an engine with record_decisions.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "model/job.hpp"
#include "stream/session_table.hpp"
#include "support/reference_pd.hpp"

namespace pss::reference {

inline void expect_streams_match_oracle(
    const std::vector<stream::StreamResult>& results,
    const std::map<stream::StreamId, std::vector<model::Job>>& jobs,
    model::Machine machine) {
  ASSERT_FALSE(results.empty());
  for (const stream::StreamResult& result : results) {
    SCOPED_TRACE("stream " + std::to_string(result.id));
    const auto stream_jobs = jobs.find(result.id);
    ASSERT_NE(stream_jobs, jobs.end());
    ASSERT_EQ(result.decisions.size(),
              std::size_t(result.counters.arrivals));
    ReferencePd oracle(machine);
    for (const auto& [id, decision] : result.decisions) {
      const model::Job* job = nullptr;
      for (const model::Job& j : stream_jobs->second)
        if (j.id == id) job = &j;
      ASSERT_NE(job, nullptr) << "job " << id;
      const core::ArrivalDecision want = oracle.on_arrival(*job);
      ASSERT_EQ(decision.accepted, want.accepted) << job->to_string();
      ASSERT_EQ(decision.speed, want.speed) << job->to_string();
      ASSERT_EQ(decision.lambda, want.lambda) << job->to_string();
      ASSERT_EQ(decision.planned_energy, want.planned_energy)
          << job->to_string();
    }
    ASSERT_EQ(result.planned_energy, oracle.planned_energy());
  }
}

}  // namespace pss::reference

package cluster

import "regmutex/internal/service"

// The journal is the router's failover-replay log (internal/jsonl), the
// same shape as the instance journal one level down: an "accept" record
// per admitted job, an "assign" per instance placement, a "finish" per
// terminal state. On restart, accepted jobs with no finish record — lost
// to a router crash, possibly together with the instance that held them
// — are re-routed. Re-routing is safe because the end state dedups by
// fingerprint: if the original instance completed the job, affinity
// routing sends the replay to the same instance and the memo answers
// from cache; if the instance died, the replay is a fresh simulation
// elsewhere.

// journalRecord is one line of the router journal.
type journalRecord struct {
	Op       string                 `json:"op"` // "accept" | "assign" | "finish"
	ID       string                 `json:"id"`
	FP       string                 `json:"fp,omitempty"` // hex fingerprint (accept)
	Req      *service.SubmitRequest `json:"req,omitempty"`
	Instance string                 `json:"instance,omitempty"` // assign only
	RemoteID string                 `json:"remote_id,omitempty"`
	End      string                 `json:"state,omitempty"` // finish only
}

// pendingJobs folds the record list into accepted-but-unfinished jobs in
// acceptance order — the replay set.
func pendingJobs(records []journalRecord) []journalRecord {
	finished := make(map[string]bool)
	for _, rec := range records {
		if rec.Op == "finish" {
			finished[rec.ID] = true
		}
	}
	var out []journalRecord
	for _, rec := range records {
		if rec.Op == "accept" && !finished[rec.ID] && rec.Req != nil {
			out = append(out, rec)
		}
	}
	return out
}

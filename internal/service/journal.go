package service

// The journal is the service's crash-safety log (internal/jsonl): one
// record per job acceptance and one per finish. On restart, pendingJobs
// returns the accepted jobs with no finish record — exactly the work a
// crash or SIGKILL (or a SIGTERM that interrupted running sims) left
// behind, which the service re-queues. Client-canceled and completed
// jobs have finish records and stay dead.

// journalRecord is one line of the journal file.
type journalRecord struct {
	Op  string         `json:"op"` // "accept" | "finish"
	ID  string         `json:"id"`
	Req *SubmitRequest `json:"req,omitempty"`   // accept only
	End string         `json:"state,omitempty"` // finish only
}

// pendingJobs folds a record list into the accepted-but-unfinished set,
// preserving acceptance order.
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

// Package api defines the wire schema every treegion HTTP surface shares.
// The daemon (treegiond) and the shard router (treegion-router) both answer
// failed requests with the structured body defined here, so a client parses
// one error shape no matter which tier produced it — and the two binaries
// cannot drift apart, because they marshal the same struct. Both read a
// request body through ReadBody and a compile body through DecodeCompile or
// DecodeBatch, into one normal form (compile.go): the router shards a body
// by the key the daemon caches its compile under.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Error is the body of every non-2xx reply:
//
//	{"error": {"code": "...", "message": "...", ...}}
//
// Code is a stable machine-readable identifier (bad_json, bad_ir,
// verify_failed, queue_full, no_replica, ...); Message is human-readable
// detail. verify_failed errors also carry the distinct violated rule IDs
// and the rendered diagnostics.
type Error struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the payload inside the "error" envelope.
type ErrorDetail struct {
	Code        string   `json:"code"`
	Message     string   `json:"message"`
	Rules       []string `json:"rules,omitempty"`
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// WriteError writes the structured error body with the given HTTP status.
func WriteError(w http.ResponseWriter, status int, d ErrorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(Error{Error: d})
}

// Failure is a refused request: its HTTP status and the structured detail
// the reply carries. Code lets the daemon's job queue record the code of a
// failed job (jobs.Coder).
type Failure struct {
	Status int
	Detail ErrorDetail
}

// Fail builds the Failure with status and code whose message is err's.
func Fail(status int, code string, err error) *Failure {
	return &Failure{Status: status, Detail: ErrorDetail{Code: code, Message: err.Error()}}
}

func (f *Failure) Error() string { return f.Detail.Message }

// Code is the failure's machine-readable code.
func (f *Failure) Code() string { return f.Detail.Code }

// MaxBodyBytes bounds one request body.
const MaxBodyBytes = 8 << 20

// ReadBody reads one bounded request body. A body of declared length is
// read into one buffer of that length, and one declared over MaxBodyBytes
// is refused unread (413 body_too_large); a body of unknown length is read
// up to the bound.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, *Failure) {
	if r.ContentLength > MaxBodyBytes {
		return nil, Fail(http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Errorf("request body of %d bytes is over the %d-byte limit", r.ContentLength, MaxBodyBytes))
	}
	var data []byte
	var err error
	if r.ContentLength >= 0 {
		data = make([]byte, r.ContentLength)
		_, err = io.ReadFull(r.Body, data)
	} else {
		data, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	}
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, Fail(http.StatusRequestEntityTooLarge, "body_too_large", err)
		}
		return nil, Fail(http.StatusBadRequest, "bad_body", fmt.Errorf("read request body: %w", err))
	}
	return data, nil
}

// StoreStats is the GET /v1/store/stats response: the persistent artifact
// store's counters plus the payload schema this daemon reads and writes.
// Lookups hitting an entry with any other schema version (including the
// retired tgart1 container) count under schema_skew and read as misses.
type StoreStats struct {
	// Enabled is false when the daemon runs without -store-dir; all other
	// fields are zero then.
	Enabled bool `json:"enabled"`
	// SchemaVersion is the tgart2 payload schema this binary speaks.
	SchemaVersion int `json:"schema_version"`

	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Puts       int64 `json:"puts"`
	Evictions  int64 `json:"evictions"`
	Corrupt    int64 `json:"corrupt"`
	SchemaSkew int64 `json:"schema_skew"`

	WriteErrors  int64 `json:"write_errors"`
	EncodeErrors int64 `json:"encode_errors"`

	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget_bytes"`
}

// Package jsonl is the crash-tolerant JSON-lines log behind the gpusimd
// journal, the router journal and the load-trace reader: one JSON record
// per line, appended in place, so a crash mid-append can only damage the
// final line.
//
// One set of rules holds for every reader:
//
//   - Blank lines are skipped, but they still count in line numbers.
//   - A line may be up to 16 MiB long.
//   - An unparseable final line is a torn append: it is skipped and its
//     line number reported.
//   - An unparseable line with a record after it is corruption, not a
//     crash artifact: reading fails with an error naming that line.
//
// Open additionally repairs the file so it ends on a record boundary (a
// torn tail is truncated, a missing final newline added), which keeps the
// next Append from fusing with the fragment.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// maxLine is the longest line a reader accepts.
const maxLine = 16 << 20

// tail describes how the intact part of a log ends.
type tail struct {
	torn int   // line number of a torn final record; 0 when none
	end  int64 // byte offset just past the last intact line
	nl   bool  // whether that line ended in '\n' (true for an empty log)
}

// Read parses the records in r. It returns the line number of a torn
// final record, which is skipped, or 0 when there is none.
func Read[T any](r io.Reader) ([]T, int, error) {
	recs, t, err := read[T](r)
	return recs, t.torn, err
}

func read[T any](r io.Reader) ([]T, tail, error) {
	var (
		recs    []T
		t       = tail{nl: true}
		off     int64 // byte offset just past the current line
		nl      bool  // whether the current line ended in '\n'
		line    int
		pending int // line number of an unparseable line, not yet known to be final
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			off += int64(adv)
			nl = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(bytes.TrimSpace(b)) == 0 {
			if pending == 0 {
				t.end, t.nl = off, nl
			}
			continue
		}
		if pending > 0 {
			return nil, tail{}, fmt.Errorf("corrupt record at line %d (not the final line)", pending)
		}
		var rec T
		if json.Unmarshal(b, &rec) != nil {
			pending = line
			continue
		}
		recs = append(recs, rec)
		t.end, t.nl = off, nl
	}
	if err := sc.Err(); err != nil {
		return nil, tail{}, fmt.Errorf("line %d: %w", line+1, err)
	}
	t.torn = pending
	return recs, t, nil
}

// Log appends records to a JSONL file. A nil *Log does nothing, so an
// unconfigured path needs no checks at the call sites. Safe for
// concurrent use.
type Log[T any] struct {
	mu   sync.Mutex
	f    *os.File
	sync bool
}

// Open reads the records already at path, repairs the file to end on a
// record boundary, and returns a Log appending to it together with the
// intact records and the line number of a torn final record it dropped
// (0 when none). sync makes every Append, and the repair, reach stable
// storage before returning. An empty path returns a nil Log.
func Open[T any](path string, sync bool) (*Log[T], []T, int, error) {
	if path == "" {
		return nil, nil, 0, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	recs, t, err := read[T](f)
	if err == nil {
		err = repair(f, t, sync)
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return &Log[T]{f: f, sync: sync}, recs, t.torn, nil
}

// repair cuts a torn tail off and terminates the last intact line, so
// the next append starts a fresh line.
func repair(f *os.File, t tail, sync bool) error {
	if t.torn > 0 {
		if err := f.Truncate(t.end); err != nil {
			return err
		}
	}
	if !t.nl {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	if sync && (t.torn > 0 || !t.nl) {
		return f.Sync()
	}
	return nil
}

// Append writes one record as a line and, when the log was opened with
// sync, flushes it to stable storage before returning.
func (l *Log[T]) Append(rec T) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return err
	}
	if !l.sync {
		return nil
	}
	return l.f.Sync()
}

// Close closes the file.
func (l *Log[T]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

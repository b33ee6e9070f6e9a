package jsonl

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	ID string `json:"id"`
	N  int    `json:"n,omitempty"`
}

func TestRead(t *testing.T) {
	a, b := `{"id":"a","n":1}`, `{"id":"b"}`
	long := `{"id":"` + strings.Repeat("x", 5<<20) + `"}` // past the old 4 MiB trace limit
	for _, tc := range []struct {
		name    string
		in      string
		want    []string // record IDs
		torn    int
		wantErr string
	}{
		{name: "empty", in: ""},
		{name: "records", in: a + "\n" + b + "\n", want: []string{"a", "b"}},
		{name: "no final newline", in: a + "\n" + b, want: []string{"a", "b"}},
		{name: "blank lines skipped", in: "\n" + a + "\n  \n\n" + b + "\n", want: []string{"a", "b"}},
		{name: "crlf", in: a + "\r\n" + b + "\r\n", want: []string{"a", "b"}},
		{name: "torn tail", in: a + "\n" + b + "\n" + `{"id":"c`, want: []string{"a", "b"}, torn: 3},
		{name: "torn tail before blank lines", in: a + "\n" + `{"id":` + "\n\n", want: []string{"a"}, torn: 2},
		{name: "corrupt mid-file", in: a + "\n{garbage}\n" + b + "\n", wantErr: "corrupt record at line 2"},
		{name: "corrupt line named past a blank line", in: a + "\n" + b + "\nGARBAGE\n\n" + a + "\n", wantErr: "corrupt record at line 3"},
		{name: "long line", in: long + "\n" + a + "\n", want: []string{strings.Repeat("x", 5<<20), "a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, torn, err := Read[rec](strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := ids(recs); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("records = %v, want %v", got, tc.want)
			}
			if torn != tc.torn {
				t.Errorf("torn = %d, want %d", torn, tc.torn)
			}
		})
	}
}

func ids(recs []rec) []string {
	var out []string
	for _, r := range recs {
		out = append(out, r.ID)
	}
	return out
}

// TestOpenTruncatesTornTail: appends after a torn tail must start on a
// fresh line, so the next open sees every intact record and no
// corruption.
func TestOpenTruncatesTornTail(t *testing.T) {
	for _, sync := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(`{"id":"a"}`+"\n"+`{"id":"b`), 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, torn, err := Open[rec](path, sync)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(recs); !reflect.DeepEqual(got, []string{"a"}) || torn != 2 {
			t.Fatalf("first open: records %v torn %d, want [a] torn 2", got, torn)
		}
		for _, id := range []string{"c", "d"} {
			if err := l.Append(rec{ID: id}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, recs, torn, err = Open[rec](path, sync)
		if err != nil {
			t.Fatalf("reopen after appends: %v", err)
		}
		l.Close()
		if got := ids(recs); !reflect.DeepEqual(got, []string{"a", "c", "d"}) || torn != 0 {
			t.Fatalf("reopen: records %v torn %d, want [a c d] torn 0", got, torn)
		}
	}
}

// TestOpenTerminatesLastRecord: an intact last record written without
// its newline gets one, so the next append is a line of its own.
func TestOpenTerminatesLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(`{"id":"a"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := Open[rec](path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{ID: "b", N: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"a"}` + "\n" + `{"id":"b","n":2}` + "\n"; string(data) != want {
		t.Fatalf("file = %q, want %q", data, want)
	}
}

// TestOpenRefusesCorruption: mid-file corruption fails the open with the
// path and line named, and leaves the file untouched.
func TestOpenRefusesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	content := `{"id":"a"}` + "\nGARBAGE\n" + `{"id":"b"}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open[rec](path, true)
	if err == nil || !strings.Contains(err.Error(), "corrupt record at line 2") ||
		!strings.Contains(err.Error(), path) {
		t.Fatalf("Open = %v, want corrupt-record error naming %s line 2", err, path)
	}
	if data, _ := os.ReadFile(path); string(data) != content {
		t.Fatalf("refused open modified the file: %q", data)
	}
}

func TestOpenNewAndDisabled(t *testing.T) {
	l, recs, torn, err := Open[rec]("", true)
	if l != nil || recs != nil || torn != 0 || err != nil {
		t.Fatalf("empty path = %v %v %d %v, want all zero", l, recs, torn, err)
	}
	if err := l.Append(rec{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "new.jsonl")
	l, recs, torn, err = Open[rec](path, false)
	if err != nil || len(recs) != 0 || torn != 0 {
		t.Fatalf("new file: %v %d %v", recs, torn, err)
	}
	defer l.Close()
	if err := l.Append(rec{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != `{"id":"a"}`+"\n" {
		t.Fatalf("file = %q", data)
	}
}

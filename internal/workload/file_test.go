package workload

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// goodWorkload is a small valid v1 workload exercising every record
// kind and most optional fields.
const goodWorkload = `# canonical tiny workload
{"kind":"workload","version":1,"name":"tiny","nodes":2,"slotsPerNode":2,"replicas":2,"faultRate":0.01,"faultSeed":7,"cacheMBPerNode":4,"cacheFrac":0.5,"cost":{"scanMBps":50,"taskOverhead":0.1}}
{"kind":"file","name":"corpus","content":"text","blocks":8,"blockBytes":4096,"segmentBlocks":2,"seed":11,"vocab":200}

{"kind":"job","id":1,"at":0,"file":"corpus","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":1.5,"file":"corpus","factory":"heavy-wordcount","param":"a","weight":2,"reduceWeight":3,"numReduce":2,"emitFactor":4}
`

func parseGood(t *testing.T) *File {
	t.Helper()
	wf, err := ParseFile(strings.NewReader(goodWorkload))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	return wf
}

func TestParseFileGood(t *testing.T) {
	wf := parseGood(t)
	if wf.Header.Name != "tiny" || wf.Header.Nodes != 2 {
		t.Fatalf("header mismatch: %+v", wf.Header)
	}
	if wf.Header.Cost == nil || wf.Header.Cost.ScanMBps != 50 || wf.Header.Cost.TaskOverhead != 0.1 {
		t.Fatalf("cost model mismatch: %+v", wf.Header.Cost)
	}
	if len(wf.Files) != 1 || wf.Files[0].Vocab != 200 || wf.Files[0].SegmentBlocks != 2 {
		t.Fatalf("file mismatch: %+v", wf.Files)
	}
	if len(wf.Jobs) != 2 || wf.Jobs[1].EmitFactor != 4 || wf.Jobs[1].At != 1.5 {
		t.Fatalf("jobs mismatch: %+v", wf.Jobs)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	wf := parseGood(t)
	var buf bytes.Buffer
	if err := wf.Serialize(&buf); err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	again, err := ParseFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\nserialized:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(wf, again) {
		t.Fatalf("round trip changed workload:\nbefore: %+v\nafter:  %+v", wf, again)
	}
	// Serialization is canonical: serializing the reparse is
	// byte-identical, so Digest is stable.
	var buf2 bytes.Buffer
	if err := again.Serialize(&buf2); err != nil {
		t.Fatalf("re-serialize: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("serialization not canonical:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
	if wf.Digest() != again.Digest() {
		t.Fatalf("digest unstable: %s vs %s", wf.Digest(), again.Digest())
	}
}

func TestParseFileErrors(t *testing.T) {
	header := `{"kind":"workload","version":1,"name":"w","nodes":2,"slotsPerNode":1,"replicas":1}` + "\n"
	file := `{"kind":"file","name":"f","content":"text","blocks":4,"blockBytes":64,"segmentBlocks":2}` + "\n"
	job := `{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t"}` + "\n"

	cases := []struct {
		name     string
		in       string
		wantLine int    // 0 = not a LineError
		wantSub  string // substring of the error text
	}{
		{"empty", "", 0, "no \"workload\" header"},
		{"not json", "nope\n", 1, ""},
		{"unknown kind", header + `{"kind":"mystery"}` + "\n", 2, "unknown record kind"},
		{"retired pipeline field", strings.Replace(header, `"nodes":2`, `"nodes":2,"pipeline":true`, 1) + file + job, 1, "pipeline"},
		{"unknown field", header + `{"kind":"file","name":"f","content":"text","blocks":4,"blockBytes":64,"segmentBlocks":2,"zorp":1}` + "\n", 2, "zorp"},
		{"record before header", file, 1, "before the \"workload\" header"},
		{"duplicate header", header + header, 2, "duplicate"},
		{"trailing data", header + `{"kind":"file","name":"f","content":"text","blocks":4,"blockBytes":64,"segmentBlocks":2}{"x":1}` + "\n", 2, "after top-level value"},
		{"bad version", strings.Replace(header, `"version":1`, `"version":99`, 1) + file + job, 0, "version"},
		{"no file", header + job, 0, "exactly one file"},
		{"two files", header + file + strings.Replace(file, `"name":"f"`, `"name":"g"`, 1) + job, 0, "exactly one file"},
		{"no jobs", header + file, 0, "no job records"},
		{"bad content", header + strings.Replace(file, `"content":"text"`, `"content":"parquet"`, 1) + job, 0, "unknown content"},
		{"bad segment", header + strings.Replace(file, `"segmentBlocks":2`, `"segmentBlocks":9`, 1) + job, 0, "segment size"},
		{"no blocks", header + strings.Replace(file, `"blocks":4`, `"blocks":0`, 1) + job, 0, "positive blocks"},
		{"no block bytes", header + strings.Replace(file, `"blockBytes":64`, `"blockBytes":0`, 1) + job, 0, "positive blocks"},
		{"dup job id", header + file + job + job, 0, "duplicate job id"},
		{"negative at", header + file + strings.Replace(job, `"at":0`, `"at":-1`, 1), 0, "negative time"},
		{"wrong file ref", header + file + strings.Replace(job, `"file":"f"`, `"file":"x"`, 1), 3, "unknown file"},
		{"unknown factory", header + file + strings.Replace(job, `"factory":"wordcount"`, `"factory":"join"`, 1), 0, "unknown factory"},
		{"selection on text", header + file + `{"kind":"job","id":1,"at":0,"file":"f","factory":"selection","param":"5"}` + "\n", 0, "needs lineitem content"},
		{"selection bad param", header + strings.Replace(file, `"content":"text"`, `"content":"lineitem"`, 1) + `{"kind":"job","id":1,"at":0,"file":"f","factory":"selection","param":"five"}` + "\n", 0, "integer quantity"},
		{"emit factor on plain", header + file + strings.Replace(job, `"param":"t"`, `"param":"t","emitFactor":2`, 1), 0, "emitFactor"},
		{"bad replicas", strings.Replace(header, `"replicas":1`, `"replicas":3`, 1) + file + job, 0, "replicas"},
		{"bad fault rate", strings.Replace(header, `"nodes":2`, `"nodes":2,"faultRate":1.5`, 1) + file + job, 0, "fault rate"},
		{"negative fault rate", strings.Replace(header, `"nodes":2`, `"nodes":2,"faultRate":-0.1`, 1) + file + job, 0, "fault rate"},
		{"negative cache budget", strings.Replace(header, `"nodes":2`, `"nodes":2,"cacheMBPerNode":-1`, 1) + file + job, 0, "cache budget"},
		{"bad cache fraction", strings.Replace(header, `"nodes":2`, `"nodes":2,"cacheFrac":1.5`, 1) + file + job, 0, "cache fraction"},
		{"bad cost", strings.Replace(header, `"nodes":2`, `"nodes":2,"cost":{"scanMBps":-1}`, 1) + file + job, 0, "ScanMBps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFile(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ParseFile accepted %q", tc.in)
			}
			var le *LineError
			if tc.wantLine > 0 {
				if !errors.As(err, &le) {
					t.Fatalf("error %v is not a *LineError", err)
				}
				if le.Line != tc.wantLine {
					t.Fatalf("error on line %d, want %d: %v", le.Line, tc.wantLine, err)
				}
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// Version mismatch is errors.Is-able.
	_, err := ParseFile(strings.NewReader(strings.Replace(header, `"version":1`, `"version":99`, 1) + file + job))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version error %v is not ErrUnsupportedVersion", err)
	}
}

// TestParseFileV3Errors pins the DAG schema rules: cycles, dangling
// dependsOn, duplicate ids and version gating are all rejected with
// typed *LineErrors pointing at the offending record.
func TestParseFileV3Errors(t *testing.T) {
	header := `{"kind":"workload","version":3,"name":"w","nodes":2,"slotsPerNode":1,"replicas":1}` + "\n"
	file := `{"kind":"file","name":"f","content":"text","blocks":4,"blockBytes":64,"segmentBlocks":2}` + "\n"
	job1 := `{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t"}` + "\n"

	cases := []struct {
		name     string
		in       string
		wantLine int
		wantSub  string
	}{
		{"dependsOn on v1",
			strings.Replace(header, `"version":3`, `"version":1`, 1) + file + job1 +
				`{"kind":"job","id":2,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1]}` + "\n",
			4, "needs schema v3"},
		{"self cycle",
			header + file + `{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t","dependsOn":[1]}` + "\n",
			3, "depends on itself"},
		{"two-node cycle",
			header + file +
				`{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t","dependsOn":[2]}` + "\n" +
				`{"kind":"job","id":2,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1]}` + "\n",
			4, "dependency cycle"},
		{"dangling dependsOn",
			header + file + job1 +
				`{"kind":"job","id":2,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[7]}` + "\n",
			4, "depends on unknown job 7"},
		{"duplicate dependency",
			header + file + job1 +
				`{"kind":"job","id":2,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1,1]}` + "\n",
			4, "dependency 1 twice"},
		{"duplicate id with deps",
			header + file + job1 +
				`{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1]}` + "\n",
			4, "duplicate job id"},
		{"derived without dep",
			header + file + job1 +
				`{"kind":"job","id":2,"at":0,"file":"job-1.out","factory":"topk","param":"3"}` + "\n",
			4, "without depending on job 1"},
		{"topk on raw corpus",
			header + file + job1 +
				`{"kind":"job","id":2,"at":0,"file":"f","factory":"topk","param":"3","dependsOn":[1]}` + "\n",
			4, "topk scans a dependency's derived output"},
		{"topk bad k",
			header + file + job1 +
				`{"kind":"job","id":2,"at":0,"file":"job-1.out","factory":"topk","param":"0","dependsOn":[1]}` + "\n",
			4, "positive integer k"},
		{"topk over a selection",
			header + file +
				`{"kind":"file","name":"li","content":"lineitem","blocks":4,"blockBytes":64,"segmentBlocks":2}` + "\n" +
				`{"kind":"job","id":1,"at":0,"file":"li","factory":"selection","param":"10"}` + "\n" +
				`{"kind":"job","id":2,"at":0,"file":"job-1.out","factory":"topk","param":"3","dependsOn":[1]}` + "\n",
			5, "a selection's values are rows, not counts"},
		{"DAG over meta file",
			header + strings.Replace(file, `"content":"text"`, `"content":"meta"`, 1) + job1 +
				`{"kind":"job","id":2,"at":0,"file":"job-1.out","factory":"topk","param":"3","dependsOn":[1]}` + "\n",
			2, "need real bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFile(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ParseFile accepted %q", tc.in)
			}
			var le *LineError
			if !errors.As(err, &le) {
				t.Fatalf("error %v is not a *LineError", err)
			}
			if le.Line != tc.wantLine {
				t.Fatalf("error on line %d, want %d: %v", le.Line, tc.wantLine, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseFileV3Good pins the accepted DAG form: multiple files, a
// chained topk over a derived output, and round-trip stability.
func TestParseFileV3Good(t *testing.T) {
	in := `{"kind":"workload","version":3,"name":"dag","nodes":2,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"corpus","content":"text","blocks":4,"blockBytes":64,"segmentBlocks":2}
{"kind":"file","name":"lineitem","content":"lineitem","blocks":4,"blockBytes":64,"segmentBlocks":2}
{"kind":"job","id":1,"at":0,"file":"corpus","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":0,"file":"job-1.out","factory":"topk","param":"3","dependsOn":[1]}
{"kind":"job","id":3,"at":1,"file":"lineitem","factory":"aggregation","dependsOn":[1,2]}
`
	wf, err := ParseFile(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if !wf.HasDAG() {
		t.Fatal("HasDAG() = false for a DAG workload")
	}
	if got, ok := wf.DerivedProducer("job-1.out"); !ok || got != 1 {
		t.Fatalf("DerivedProducer(job-1.out) = %d, %v", got, ok)
	}
	var buf bytes.Buffer
	if err := wf.Serialize(&buf); err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	again, err := ParseFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(wf, again) {
		t.Fatalf("round trip changed workload")
	}
	if !reflect.DeepEqual(again.Jobs[2].DependsOn, []scheduler.JobID{1, 2}) {
		t.Fatalf("dependsOn lost in round trip: %+v", again.Jobs[2])
	}
}

// TestCachePolicyVersioning pins the v2 schema rules: cachePolicy
// parses on a v2 header, is rejected on v1 (the field did not exist, so
// a v1 consumer would silently reprice the file under LRU), and must
// name a known policy.
func TestCachePolicyVersioning(t *testing.T) {
	v2header := `{"kind":"workload","version":2,"name":"w","nodes":2,"slotsPerNode":1,"replicas":1,"cacheMBPerNode":1,"cachePolicy":"cursor"}` + "\n"
	file := `{"kind":"file","name":"f","content":"text","blocks":4,"blockBytes":64,"segmentBlocks":2}` + "\n"
	job := `{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t"}` + "\n"

	wf, err := ParseFile(strings.NewReader(v2header + file + job))
	if err != nil {
		t.Fatalf("v2 workload with cachePolicy rejected: %v", err)
	}
	if wf.Header.CachePolicy != "cursor" {
		t.Fatalf("cachePolicy = %q, want cursor", wf.Header.CachePolicy)
	}
	// Round trip preserves the declared version and the policy.
	var buf bytes.Buffer
	if err := wf.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ParseFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again.Header.Version != 2 || again.Header.CachePolicy != "cursor" {
		t.Fatalf("round trip lost v2 fields: %+v", again.Header)
	}

	v1policy := strings.Replace(v2header, `"version":2`, `"version":1`, 1)
	if _, err := ParseFile(strings.NewReader(v1policy + file + job)); err == nil || !strings.Contains(err.Error(), "schema v2") {
		t.Fatalf("v1 header with cachePolicy accepted (err=%v)", err)
	}
	// "2q" was a policy once; a file still naming it is refused like any
	// other unknown one, not silently run as lru.
	for _, bad := range []string{"clock", "2q"} {
		badPolicy := strings.Replace(v2header, `"cachePolicy":"cursor"`, `"cachePolicy":"`+bad+`"`, 1)
		if _, err := ParseFile(strings.NewReader(badPolicy + file + job)); err == nil || !strings.Contains(err.Error(), "unknown cache policy") {
			t.Fatalf("cachePolicy %q accepted (err=%v)", bad, err)
		}
	}
	// A bare v2 header without the new field is fine.
	v2plain := strings.Replace(v2header, `,"cachePolicy":"cursor"`, ``, 1)
	if _, err := ParseFile(strings.NewReader(v2plain + file + job)); err != nil {
		t.Fatalf("plain v2 workload rejected: %v", err)
	}
}

// TestV1DigestStable pins that the v2 schema change leaves v1 files
// byte-identical through Parse∘Serialize — existing baselines keyed by
// Digest stay valid.
func TestV1DigestStable(t *testing.T) {
	wf := parseGood(t)
	if wf.Header.Version != 1 {
		t.Fatalf("goodWorkload is v%d, want v1", wf.Header.Version)
	}
	var buf bytes.Buffer
	if err := wf.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "cachePolicy") {
		t.Fatalf("v1 serialization grew a cachePolicy field:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"version":1`) {
		t.Fatalf("v1 serialization lost its version:\n%s", buf.String())
	}
}

func TestFileJobMetaAndEntries(t *testing.T) {
	wf := parseGood(t)
	entries := wf.Entries()
	if len(entries) != 2 {
		t.Fatalf("got %d entries", len(entries))
	}
	if entries[0].Job.ID != 1 || entries[0].Job.Name != "wordcount-t-1" || entries[0].Job.File != "corpus" {
		t.Fatalf("entry 0 meta: %+v", entries[0].Job)
	}
	if entries[1].At != 1.5 || entries[1].Job.Weight != 2 || entries[1].Job.ReduceWeight != 3 {
		t.Fatalf("entry 1: %+v", entries[1])
	}
}

func TestFileSpecAddTo(t *testing.T) {
	for _, content := range []string{ContentText, ContentLineitem, ContentMeta} {
		store, err := dfs.NewStore(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		fs := FileSpec{Kind: KindFile, Name: "f", Content: content, Blocks: 3, BlockBytes: 256, SegmentBlocks: 1, Seed: 5}
		f, err := fs.AddTo(store)
		if err != nil {
			t.Fatalf("AddTo(%s): %v", content, err)
		}
		if got := len(f.Blocks()); got != 3 {
			t.Fatalf("AddTo(%s): %d blocks, want 3", content, got)
		}
	}
}

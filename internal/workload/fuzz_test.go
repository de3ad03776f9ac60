package workload

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// Fuzz targets: the parsers must never panic on arbitrary input — a
// malformed block is a job error, not a worker crash. Run with
// `go test -fuzz=FuzzSelectionMapper ./internal/workload` to explore;
// the seed corpus runs on every plain `go test`.

func FuzzSelectionMapper(f *testing.F) {
	f.Add([]byte("1|2|3|4|5|x|x|x|R|O|d|d|d|i|m|c\n"))
	f.Add([]byte("not a row at all"))
	f.Add([]byte("1|2|3|4|notanumber|x\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("a|b|c|d|e|f\nrow2|b|c|d|9|f\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := SelectionMapper{MaxQuantity: 10}
		// Must not panic; errors are fine.
		_ = m.Map(dfs.BlockID{}, data, func(mapreduce.KV) {})
		_ = m.CountInputRecords(data)
	})
}

func FuzzAggregationMapper(f *testing.F) {
	f.Add([]byte("1|2|3|4|5|p|d|t|R|O|d1|d2|d3|i|m|comment\n"))
	f.Add([]byte("short|row"))
	f.Add([]byte("||||||||||||\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = AggregationMapper{}.Map(dfs.BlockID{}, data, func(mapreduce.KV) {})
	})
}

func FuzzPatternCountMapper(f *testing.F) {
	f.Add([]byte("the quick brown fox"), "t")
	f.Add([]byte(""), "")
	f.Add([]byte("\x00\xff\xfe"), "x")
	f.Fuzz(func(t *testing.T, data []byte, prefix string) {
		m := PatternCountMapper{Prefix: prefix}
		count := 0
		_ = m.Map(dfs.BlockID{}, data, func(kv mapreduce.KV) {
			if !strings.HasPrefix(kv.Key, prefix) {
				t.Fatalf("emitted %q without prefix %q", kv.Key, prefix)
			}
			count++
		})
		if got := m.CountInputRecords(data); int64(count) > got {
			t.Fatalf("emitted %d records from %d input words", count, got)
		}
	})
}

func FuzzKVLineMapper(f *testing.F) {
	f.Add([]byte("key\tvalue\n"))
	f.Add([]byte("no tab"))
	f.Add([]byte("\t\n\t\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := mapreduce.KVLineMapper{Each: func(k, v string, emit mapreduce.Emit) error {
			emit(mapreduce.KV{Key: k, Value: v})
			return nil
		}}
		_ = m.Map(dfs.BlockID{}, data, func(mapreduce.KV) {})
	})
}

// FuzzTextGenSizes holds text blocks, over the built-in vocabulary or a
// synthetic one of up to 70,000 words, to refTextBlock byte for byte.
func FuzzTextGenSizes(f *testing.F) {
	f.Add(int64(1), 0, int64(64), uint32(0))
	f.Add(int64(42), 100, int64(1), uint32(0))
	f.Add(int64(-3), 7, int64(4096), uint32(70_000))
	f.Fuzz(func(t *testing.T, seed int64, idx int, size int64, vocab uint32) {
		if size < 0 || size > 1<<16 || idx < 0 {
			t.Skip()
		}
		g := NewTextGen(seed)
		if vocab %= 70_001; vocab > 0 {
			g = NewTextGenVocab(seed, int(vocab))
		}
		b := g.Block(idx, size)
		if int64(len(b)) != size {
			t.Fatalf("block size %d, want %d", len(b), size)
		}
		if want := refTextBlock(g, idx, size); !bytes.Equal(b, want) {
			t.Fatalf("vocab %d seed %d block %d size %d: %s", vocab, seed, idx, size, firstDiff(b, want))
		}
	})
}

// FuzzLineitemBlock holds lineitem blocks to refLineitemBlock byte for byte.
func FuzzLineitemBlock(f *testing.F) {
	f.Add(int64(1), 0, int64(100))
	f.Add(int64(7), 1<<20, int64(4096))
	f.Add(int64(-2), 3, int64(0))
	f.Fuzz(func(t *testing.T, seed int64, idx int, size int64) {
		if size < 0 || size > 1<<16 || idx < 0 || idx > 1<<40 {
			t.Skip()
		}
		g := NewLineitemGen(seed)
		b := g.Block(idx, size)
		if int64(len(b)) != size {
			t.Fatalf("block size %d, want %d", len(b), size)
		}
		if want := refLineitemBlock(g, idx, size); !bytes.Equal(b, want) {
			t.Fatalf("seed %d block %d size %d: %s", seed, idx, size, firstDiff(b, want))
		}
	})
}

// FuzzWorkloadFile checks the workload file format's two contracts on
// arbitrary bytes: malformed input produces an error (a *LineError for
// per-line breakage) and never a panic, while accepted input
// round-trips exactly — parse → serialize → parse yields an identical
// workload and byte-identical canonical form, so Digest is stable.
func FuzzWorkloadFile(f *testing.F) {
	f.Add([]byte(goodWorkload))
	f.Add([]byte(`{"kind":"workload","version":1,"name":"w","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"meta","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"aggregation"}`))
	f.Add([]byte("# comment only\n"))
	f.Add([]byte(`{"kind":"workload","version":99}`))
	f.Add([]byte(`{"kind":"job","id":1}`))
	f.Add([]byte("{\"kind\":\"workload\"\xff"))
	f.Add([]byte(`{"kind":"workload","version":1,"name":"w","nodes":1,"slotsPerNode":1,"replicas":1,"cost":{"scanMBps":1e309}}`))
	// v3 DAG seeds: a valid chain, a dependency cycle, a dangling
	// dependsOn, a duplicate id, and a dependsOn on a v1 header — the
	// rejects must all surface as typed *LineErrors, never panics.
	f.Add([]byte(`{"kind":"workload","version":3,"name":"dag","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"text","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":0,"file":"job-1.out","factory":"topk","param":"3","dependsOn":[1]}`))
	f.Add([]byte(`{"kind":"workload","version":3,"name":"cyc","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"text","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t","dependsOn":[2]}
{"kind":"job","id":2,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1]}`))
	f.Add([]byte(`{"kind":"workload","version":3,"name":"dangling","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"text","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t","dependsOn":[9]}`))
	f.Add([]byte(`{"kind":"workload","version":3,"name":"dup","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"text","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t"}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1]}`))
	f.Add([]byte(`{"kind":"workload","version":1,"name":"old","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"text","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t","dependsOn":[1]}`))
	// A diamond whose join feeds back into one side (the cycle is entered
	// through an acyclic stage), and a dependency listed twice.
	f.Add([]byte(`{"kind":"workload","version":3,"name":"diamond","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"text","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1,4]}
{"kind":"job","id":3,"at":0,"file":"f","factory":"wordcount","param":"w","dependsOn":[1]}
{"kind":"job","id":4,"at":0,"file":"f","factory":"wordcount","param":"h","dependsOn":[2,3]}`))
	f.Add([]byte(`{"kind":"workload","version":3,"name":"twice","nodes":1,"slotsPerNode":1,"replicas":1}
{"kind":"file","name":"f","content":"text","blocks":2,"blockBytes":64,"segmentBlocks":1}
{"kind":"job","id":1,"at":0,"file":"f","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":0,"file":"f","factory":"wordcount","param":"a","dependsOn":[1,1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		wf, err := ParseFile(bytes.NewReader(data))
		if err != nil {
			var le *LineError
			if errors.As(err, &le) && le.Line <= 0 {
				t.Fatalf("LineError with non-positive line %d: %v", le.Line, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := wf.Serialize(&buf); err != nil {
			t.Fatalf("Serialize of accepted workload failed: %v", err)
		}
		again, err := ParseFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of serialized workload failed: %v\nserialized:\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(wf, again) {
			t.Fatalf("round trip changed workload:\nbefore: %+v\nafter:  %+v", wf, again)
		}
		var buf2 bytes.Buffer
		if err := again.Serialize(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("serialization not canonical:\n%q\nvs\n%q", buf.String(), buf2.String())
		}
	})
}

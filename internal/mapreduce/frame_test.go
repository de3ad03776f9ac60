package mapreduce

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// randomRecords draws records that stress the length prefixes: empty
// keys, empty values, lengths either side of the one-byte varint limit,
// a 64 KB value now and then, and bytes that are not UTF-8.
func randomRecords(rng *rand.Rand, n int) []KV {
	field := func() string {
		var size int
		switch rng.Intn(8) {
		case 0:
			size = 0
		case 1:
			size = 126 + rng.Intn(4)
		case 2:
			if rng.Intn(8) == 0 {
				size = 64 << 10
			}
		default:
			size = rng.Intn(24)
		}
		b := make([]byte, size)
		rng.Read(b)
		return string(b)
	}
	var kvs []KV
	for i := 0; i < n; i++ {
		kvs = append(kvs, KV{Key: field(), Value: field()})
	}
	return kvs
}

// DecodeFrame(AppendFrame(x)) is x with nothing left over, an empty run
// is one byte and decodes to nil, FrameSize is exact, and frames laid
// end to end decode one after the other.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	if frame := AppendFrame(nil, nil); !bytes.Equal(frame, []byte{0}) {
		t.Fatalf("empty frame = %x, want the single byte 00", frame)
	}
	for i := 0; i < 300; i++ {
		want := randomRecords(rng, rng.Intn(40))
		frame := AppendFrame(nil, want)
		if len(frame) != FrameSize(want) {
			t.Fatalf("FrameSize = %d, AppendFrame wrote %d bytes", FrameSize(want), len(frame))
		}
		got, rest, err := DecodeFrame(string(frame))
		if err != nil || rest != "" {
			t.Fatalf("decode: err %v, %d bytes left", err, len(rest))
		}
		if !reflect.DeepEqual(got, want) { // nil for nil: an empty run decodes to nil
			t.Fatalf("round trip of %d records differs", len(want))
		}

		// A second frame behind the first is returned as rest, untouched.
		tail := randomRecords(rng, rng.Intn(3))
		both := AppendFrame(append([]byte("prefix"), frame...), tail)[len("prefix"):]
		if _, rest, err = DecodeFrame(string(both)); err != nil {
			t.Fatal(err)
		}
		if got, rest, err = DecodeFrame(rest); err != nil || rest != "" || !reflect.DeepEqual(got, tail) {
			t.Fatalf("second frame: err %v, %d bytes left, equal %v", err, len(rest), reflect.DeepEqual(got, tail))
		}
	}
}

// Malformed input is an error that names the frame, whatever the damage.
func TestDecodeFrameRejects(t *testing.T) {
	good := AppendFrame(nil, []KV{{"key", "value"}, {"k2", strings.Repeat("v", 200)}})
	cases := map[string][]byte{
		"empty input":              {},
		"count beyond the bytes":   {200, 1, 0, 0},
		"huge count":               {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"varint overflows 64 bits": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"eleven-byte varint":       {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"overlong varint":          {0x81, 0x00, 0, 0},
		"truncated varint":         {1, 0x80},
		"key overruns":             {1, 5, 0, 'a', 'b'},
		"value overruns":           {1, 1, 5, 'a', 'b'},
		"lengths sum past the end": {1, 3, 3, 'a', 'b', 'c', 'd'},
		"cut mid-record":           good[:len(good)-1],
		"cut mid-length":           good[:13],
	}
	for name, frame := range cases {
		if kvs, _, err := DecodeFrame(string(frame)); err == nil || !strings.Contains(err.Error(), "malformed frame") {
			t.Errorf("%s: DecodeFrame = %d records, err %v; want a malformed-frame error", name, len(kvs), err)
		}
	}
}

// FuzzFrameDecode: arbitrary bytes never panic the decoder and never
// make it allocate more than a constant factor of the input; whatever
// decodes re-encodes to the very bytes consumed (the format has one
// encoding per run).
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{0})
	f.Add(AppendFrame(nil, []KV{{"", ""}, {"key", "value"}, {"\xff\xfe", strings.Repeat("x", 300)}}))
	f.Add(append(AppendFrame(nil, []KV{{"a", "b"}}), "trailing"...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{2, 1, 1, 'k'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		kvs, rest, err := DecodeFrame(string(data))
		runtime.ReadMemStats(&after)
		// The input as a string, and at most one 32-byte record per two
		// input bytes: 17 × the input, plus slack for what else the process does.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(17*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if again := AppendFrame(nil, kvs); !bytes.Equal(again, consumed) {
			t.Fatalf("re-encoding %d records gives %x, decoded from %x", len(kvs), again, consumed)
		}
	})
}

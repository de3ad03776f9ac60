package remote

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// notOnTheWire names the exported message fields the codecs leave out,
// each with its reason.
var notOnTheWire = map[string]string{
	"MapTaskReply.PerJob": "nothing fills it; it stays declared for bench/perf's remote.gob_* probes, which gob-encode it",
}

// fill sets every exported field under v that crosses the wire to a
// value no other field has, none of them zero.
func fill(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if _, skip := notOnTheWire[v.Type().Name()+"."+f.Name]; f.IsExported() && !skip {
				fill(v.Field(i), next)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), next)
		}
		v.Set(s)
	case reflect.String:
		v.SetString(fmt.Sprintf("field-%d", *next))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next) * 100_003) // several varint bytes
	case reflect.Uint32:
		v.SetUint(uint64(*next) * 40_009)
	case reflect.Uint8:
		v.SetUint(uint64(*next%255 + 1))
	default:
		panic(fmt.Sprintf("fill: a %s field: teach the codecs and this filler its kind", v.Type()))
	}
}

// wireMessages is a zero message of each type a task call sends or
// answers with, read off taskHandler — a new call's types join by
// themselves — and the worker's registration.
func wireMessages() []message {
	out := []message{new(registration)}
	handler := reflect.TypeOf((*taskHandler)(nil)).Elem()
	for i := 0; i < handler.NumMethod(); i++ {
		call := handler.Method(i).Type
		for _, typ := range []reflect.Type{call.In(0), call.In(1)} {
			if typ == reflect.TypeOf((*[]byte)(nil)) { // FetchResult's frame
				typ = reflect.TypeOf((*resultFrame)(nil))
			}
			out = append(out, reflect.New(typ.Elem()).Interface().(message))
		}
	}
	return out
}

// Every exported field of every message crosses the wire: each filled
// with a distinct non-zero value arrives as it left, so a field added
// without codec support fails here.
func TestEveryFieldCrossesTheWire(t *testing.T) {
	msgs := wireMessages()
	if len(msgs) != 13 {
		t.Fatalf("%d messages for six calls and a registration, want 13", len(msgs))
	}
	next := 0
	for _, msg := range msgs {
		v := reflect.ValueOf(msg).Elem()
		fill(v, &next)
		body := msg.appendTo(nil)
		got := reflect.New(v.Type())
		if err := decodeMessage(body, got.Interface().(message)); err != nil {
			t.Errorf("%s: %v", v.Type(), err)
			continue
		}
		if !reflect.DeepEqual(got.Elem().Interface(), v.Interface()) {
			t.Errorf("%s arrived as %+v, sent as %+v", v.Type(), got.Elem().Interface(), v.Interface())
		}
		if again := got.Interface().(message).appendTo(nil); !bytes.Equal(again, body) {
			t.Errorf("%s re-encodes as %x, was %x", v.Type(), again, body)
		}
	}
}

// checkDecoder holds a message decoder to what every decoder owes, on
// any bytes: no panic, allocations a constant factor of them, and
// nothing accepted but the one encoding of what it decoded.
func checkDecoder(t *testing.T, data []byte, msg message) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeMessage(data, msg)
	runtime.ReadMemStats(&after)
	// At most a 24-byte slice header or 16-byte string per input byte,
	// held to a count before it is made, and the error: 32 × the input,
	// plus slack.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(32*len(data)+64<<10) {
		t.Fatalf("decoding %d bytes as %T allocated %d", len(data), msg, grew)
	}
	if err == nil {
		if again := msg.appendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("%T decoded from %x re-encodes as %x", msg, data, again)
		}
	}
}

// fuzzDecoder fuzzes M's decoder with checkDecoder, seeded with a
// filled M and a few edges.
func fuzzDecoder[M any, PM interface {
	*M
	message
}](f *testing.F) {
	seed := PM(new(M))
	fill(reflect.ValueOf(seed).Elem(), new(int))
	f.Add(seed.appendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0})                                                    // a padded varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // one too long
	f.Add([]byte{0x7f, 1, 2})                                                 // a count the bytes cannot hold
	f.Fuzz(func(t *testing.T, data []byte) { checkDecoder(t, data, PM(new(M))) })
}

func FuzzMapTaskReply(f *testing.F)     { fuzzDecoder[MapTaskReply](f) }
func FuzzReduceTaskArgs(f *testing.F)   { fuzzDecoder[ReduceTaskArgs](f) }
func FuzzReduceTaskReply(f *testing.F)  { fuzzDecoder[ReduceTaskReply](f) }
func FuzzFetchArgs(f *testing.F)        { fuzzDecoder[FetchArgs](f) }
func FuzzInstallFileArgs(f *testing.F)  { fuzzDecoder[InstallFileArgs](f) }
func FuzzInstallFileReply(f *testing.F) { fuzzDecoder[InstallFileReply](f) }
func FuzzStatsArgs(f *testing.F)        { fuzzDecoder[StatsArgs](f) }
func FuzzStatsReply(f *testing.F)       { fuzzDecoder[StatsReply](f) }

// FuzzRegistration fuzzes the master's decoder of a worker's first frame,
// seeded also with the registration of a worker bound to every interface.
func FuzzRegistration(f *testing.F) {
	f.Add((&registration{ID: "worker@host-1:7001", Addr: "[::]:7001", MapSlots: 4}).appendTo(nil))
	fuzzDecoder[registration](f)
}

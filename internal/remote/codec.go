package remote

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"s3sched/internal/mapreduce"
	"s3sched/internal/scheduler"
)

// The task calls' message codecs (DESIGN.md, "Task wire"). A message is
// its fields in declaration order: integers as varints (zigzag when
// signed), a string or a []byte as a uvarint length and its bytes, a
// slice as a uvarint count and its elements. An empty slice decodes as
// nil, and every value has exactly one encoding: a padded varint is an
// error. The decoder holds every count and length to the bytes left
// before it allocates for them, and decoded strings and byte slices are
// views of the frame body, which nothing writes once it is read.

// message is what crosses a task connection: a call's arguments or its
// reply.
type message interface {
	appendTo(b []byte) []byte
	decodeFrom(d *decoder)
}

// decodeMessage decodes body, all of it, into m.
func decodeMessage(body []byte, m message) error {
	d := decoder{b: body}
	m.decodeFrom(&d)
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}

// decoder reads a message off the front of b. Its first error sticks,
// and every read after one yields zeros.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// took advances past a varint binary.Uvarint or Varint measured as n
// bytes long: a cut, overlong or padded one is an error.
func (d *decoder) took(n int) bool {
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail(fmt.Errorf("bad varint with %d bytes left", len(d.b)))
		return false
	}
	d.b = d.b[n:]
	return true
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if !d.took(n) {
		return 0
	}
	return x
}

func (d *decoder) varint() int64 {
	x, n := binary.Varint(d.b)
	if !d.took(n) {
		return 0
	}
	return x
}

func (d *decoder) int() int { return int(d.varint()) }

// count reads the length of a list whose every element is at least size
// bytes: one the bytes left cannot hold is an error.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail(fmt.Errorf("%d items of %d bytes or more with %d bytes left", n, size, len(d.b)))
		return 0
	}
	return int(n)
}

// bytes is a view of the next length-prefixed byte string; nil if empty.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

// string is a view of the next length-prefixed string.
func (d *decoder) string() string {
	b := d.bytes()
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// rest is a view of every byte left.
func (d *decoder) rest() []byte {
	b := d.b
	d.b = nil
	if len(b) == 0 {
		return nil
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts[T ~int | ~int64](b []byte, xs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func decodeInts[T ~int | ~int64](d *decoder) []T {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = T(d.varint())
	}
	return xs
}

func (r *JobRef) appendTo(b []byte) []byte {
	b = appendString(appendString(appendString(b, r.Name), r.Factory), r.Param)
	return binary.AppendVarint(b, int64(r.NumReduce))
}

func (r *JobRef) decodeFrom(d *decoder) {
	r.Name, r.Factory, r.Param, r.NumReduce = d.string(), d.string(), d.string(), d.int()
}

func (a *MapTaskArgs) appendTo(b []byte) []byte {
	b = appendInts(appendString(b, a.File), a.Blocks)
	b = binary.AppendUvarint(b, uint64(len(a.Jobs)))
	for i := range a.Jobs {
		b = a.Jobs[i].appendTo(b)
	}
	b = appendInts(appendInts(binary.AppendVarint(b, a.Epoch), a.IDs), a.Done)
	return appendInts(b, a.Hint)
}

func (a *MapTaskArgs) decodeFrom(d *decoder) {
	a.File, a.Blocks = d.string(), decodeInts[int](d)
	if n := d.count(4); n > 0 { // three lengths and a width
		a.Jobs = make([]JobRef, n)
		for i := range a.Jobs {
			a.Jobs[i].decodeFrom(d)
		}
	}
	a.Epoch, a.IDs, a.Done = d.varint(), decodeInts[scheduler.JobID](d), decodeInts[scheduler.JobID](d)
	a.Hint = decodeInts[int](d)
}

// MapTaskReply.PerJob does not cross: nothing fills it.
func (r *MapTaskReply) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(binary.AppendVarint(b, r.BytesScanned), uint64(len(r.Receipts)))
	for _, job := range r.Receipts {
		b = binary.AppendUvarint(b, uint64(len(job)))
		for _, rc := range job {
			b = binary.AppendVarint(binary.AppendVarint(b, rc.Records), rc.Bytes)
		}
	}
	return binary.AppendVarint(binary.AppendVarint(b, r.WallNs), r.PassNs)
}

func (r *MapTaskReply) decodeFrom(d *decoder) {
	r.BytesScanned = d.varint()
	if n := d.count(1); n > 0 {
		r.Receipts = make([][]PartReceipt, n)
		for i := range r.Receipts {
			if parts := d.count(2); parts > 0 {
				r.Receipts[i] = make([]PartReceipt, parts)
				for p := range r.Receipts[i] {
					r.Receipts[i][p] = PartReceipt{Records: d.varint(), Bytes: d.varint()}
				}
			}
		}
	}
	r.WallNs, r.PassNs = d.varint(), d.varint()
}

func (a *ReduceTaskArgs) appendTo(b []byte) []byte {
	b = binary.AppendVarint(binary.AppendVarint(a.Job.appendTo(b), a.Epoch), int64(a.ID))
	b = binary.AppendUvarint(binary.AppendVarint(appendString(b, a.File), int64(a.Partition)), uint64(len(a.Peers)))
	for _, peer := range a.Peers {
		b = appendString(b, peer)
	}
	return binary.AppendVarint(b, int64(a.FetchDeadline))
}

func (a *ReduceTaskArgs) decodeFrom(d *decoder) {
	a.Job.decodeFrom(d)
	a.Epoch, a.ID, a.File, a.Partition = d.varint(), scheduler.JobID(d.varint()), d.string(), d.int()
	if n := d.count(1); n > 0 {
		a.Peers = make([]string, n)
		for i := range a.Peers {
			a.Peers[i] = d.string()
		}
	}
	a.FetchDeadline = time.Duration(d.varint())
}

func (r *ReduceTaskReply) appendTo(b []byte) []byte {
	rc := &r.Receipt
	b = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(b, rc.Records), rc.Bytes), uint64(rc.Sum))
	b = appendInts(appendString(b, rc.Holder), r.Missing)
	return binary.AppendVarint(binary.AppendVarint(b, r.WallNs), r.FetchNs)
}

func (r *ReduceTaskReply) decodeFrom(d *decoder) {
	rc := &r.Receipt
	rc.Records, rc.Bytes = d.varint(), d.varint()
	if sum := d.uvarint(); sum <= math.MaxUint32 {
		rc.Sum = uint32(sum)
	} else {
		d.fail(fmt.Errorf("CRC-32C %#x over 32 bits", sum))
	}
	rc.Holder, r.Missing = d.string(), decodeInts[int](d)
	r.WallNs, r.FetchNs = d.varint(), d.varint()
}

func (a *FetchArgs) appendTo(b []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(b, a.Epoch), int64(a.ID)), int64(a.Partition))
}

func (a *FetchArgs) decodeFrom(d *decoder) {
	a.Epoch, a.ID, a.Partition = d.varint(), scheduler.JobID(d.varint()), d.int()
}

// The fetch reply is a uvarint run count, then per run its block index
// and a mapreduce frame, sized before it is written: the buffer grows at
// most once.
func (r *FetchReply) appendTo(b []byte) []byte {
	size := binary.MaxVarintLen64 * (1 + len(r.Runs))
	for _, kvs := range r.Runs {
		size += mapreduce.FrameSize(kvs)
	}
	b = binary.AppendUvarint(slices.Grow(b, size), uint64(len(r.Runs)))
	for i, kvs := range r.Runs {
		b = mapreduce.AppendFrame(binary.AppendUvarint(b, uint64(r.Blocks[i])), kvs)
	}
	return b
}

// decodeFrom reads the runs as substrings of one view of the body. A
// run count the bytes cannot hold is an error before anything is
// allocated for it, and so is a block index that does not ascend; an
// empty run comes back nil. The reply is filled in only if all of it
// decodes.
func (r *FetchReply) decodeFrom(d *decoder) {
	body := d.rest()
	s := unsafe.String(unsafe.SliceData(body), len(body))
	var err error
	next := func(limit int) (n int) { // 0 once anything has failed
		if err == nil {
			n, s, err = mapreduce.FrameUvarint(s, limit)
		}
		return n
	}
	n := next(len(s) / 2) // a run is two bytes at least
	blocks, runs := make([]int, n), make([][]mapreduce.KV, n)
	for i := 0; i < n && err == nil; i++ {
		if blocks[i] = next(math.MaxInt32); err == nil {
			runs[i], s, err = mapreduce.DecodeFrame(s)
		}
		if err == nil && i > 0 && blocks[i] <= blocks[i-1] {
			err = fmt.Errorf("block %d after block %d", blocks[i], blocks[i-1])
		}
	}
	if err == nil && s != "" {
		err = fmt.Errorf("%d trailing bytes", len(s))
	}
	if err != nil {
		d.fail(err)
		return
	}
	r.Blocks, r.Runs = blocks, runs
}

// resultFrame is FetchResult's reply: the held output frame, the whole
// body, checked against its receipt by decodeResult.
type resultFrame []byte

func (f *resultFrame) appendTo(b []byte) []byte { return append(b, *f...) }
func (f *resultFrame) decodeFrom(d *decoder)    { *f = d.rest() }

func (a *InstallFileArgs) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(binary.AppendVarint(appendString(b, a.Name), a.BlockSize), uint64(len(a.Blocks)))
	for _, block := range a.Blocks {
		b = append(binary.AppendUvarint(b, uint64(len(block))), block...)
	}
	return b
}

func (a *InstallFileArgs) decodeFrom(d *decoder) {
	a.Name, a.BlockSize = d.string(), d.varint()
	if n := d.count(1); n > 0 {
		a.Blocks = make([][]byte, n)
		for i := range a.Blocks {
			a.Blocks[i] = d.bytes()
		}
	}
}

func (*InstallFileReply) appendTo(b []byte) []byte { return b }
func (*InstallFileReply) decodeFrom(*decoder)      {}

func (a *StatsArgs) appendTo(b []byte) []byte {
	return appendInts(binary.AppendVarint(b, a.Epoch), a.Done)
}

func (a *StatsArgs) decodeFrom(d *decoder) {
	a.Epoch, a.Done = d.varint(), decodeInts[scheduler.JobID](d)
}

func (r *registration) appendTo(b []byte) []byte {
	return binary.AppendVarint(appendString(appendString(b, r.ID), r.Addr), int64(r.MapSlots))
}

func (r *registration) decodeFrom(d *decoder) {
	r.ID, r.Addr, r.MapSlots = d.string(), d.string(), d.int()
}

// counters lists the ledger's fields in declaration order.
func (r *StatsReply) counters() [21]*int64 {
	s := &r.WireStats
	return [...]*int64{&s.BlockReads, &s.BytesScanned, &s.FailedReads, &s.MapTasks, &s.MapPasses, &s.ReduceTasks,
		&s.CacheHits, &s.CacheMisses, &s.CacheEvictions, &s.CachePrefetches, &s.CachePrefetchFailed, &s.CacheBytes,
		&s.CachePinnedBytes, &s.StashBytes, &s.StashEntries, &s.ShuffleServedBytes, &s.ShuffleFetchedBytes,
		&s.ResultBytes, &s.ResultEntries, &s.ResultEvictions, &s.ResultServedBytes}
}

func (r *StatsReply) appendTo(b []byte) []byte {
	b = appendString(b, r.Worker)
	for _, c := range r.counters() {
		b = binary.AppendVarint(b, *c)
	}
	return b
}

func (r *StatsReply) decodeFrom(d *decoder) {
	r.Worker = d.string()
	for _, c := range r.counters() {
		*c = d.varint()
	}
}

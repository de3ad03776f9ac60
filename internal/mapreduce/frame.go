package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The shuffle wire format (DESIGN.md, "Shuffle wire format"). A frame is
// one run of records: uvarint record count, then per record uvarint key
// length, uvarint value length, key bytes, value bytes. An empty run is
// the single byte 0, and a run has exactly one encoding.

func uvarintLen(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }

// FrameSize is len(AppendFrame(nil, kvs)).
func FrameSize(kvs []KV) int {
	size := uvarintLen(len(kvs))
	for _, kv := range kvs {
		size += uvarintLen(len(kv.Key)) + uvarintLen(len(kv.Value)) + len(kv.Key) + len(kv.Value)
	}
	return size
}

// AppendFrame appends kvs to dst as one frame, growing dst at most once.
func AppendFrame(dst []byte, kvs []KV) []byte {
	dst = binary.AppendUvarint(slices.Grow(dst, FrameSize(kvs)), uint64(len(kvs)))
	for _, kv := range kvs {
		dst = binary.AppendUvarint(dst, uint64(len(kv.Key)))
		dst = binary.AppendUvarint(dst, uint64(len(kv.Value)))
		dst = append(append(dst, kv.Key...), kv.Value...)
	}
	return dst
}

// FrameUvarint reads a uvarint of at most limit — what the bytes behind
// it could hold — off the front of s; a padded encoding is an error.
func FrameUvarint(s string, limit int) (int, string, error) {
	var x uint64
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if (i == binary.MaxVarintLen64-1 && b > 1) || (i > 0 && b == 0) || x > uint64(limit) {
				break
			}
			return int(x), s[i+1:], nil
		}
	}
	return 0, s, fmt.Errorf("mapreduce: malformed frame: bad length %#x with %d bytes left", x, len(s))
}

// frameRecord reads one record's lengths: the key starts at rest[0] and
// key and value both fit in rest.
func frameRecord(s string) (klen, vlen int, rest string, err error) {
	if klen, s, err = FrameUvarint(s, len(s)); err == nil {
		vlen, s, err = FrameUvarint(s, len(s))
	}
	if err == nil && klen+vlen > len(s) {
		err = fmt.Errorf("mapreduce: malformed frame: record of %d+%d bytes with %d left", klen, vlen, len(s))
	}
	return klen, vlen, s, err
}

// DecodeFrame parses the frame at the front of s and returns what
// follows it. Keys and values are substrings of s: the record slice is
// the only allocation, made once the count is known to fit the bytes.
func DecodeFrame(s string) (kvs []KV, rest string, err error) {
	n, s, err := FrameUvarint(s, len(s)/2) // a record is two length bytes at least
	if err != nil || n == 0 {
		return nil, s, err
	}
	kvs = make([]KV, n)
	for i := range kvs {
		var klen, vlen int
		if klen, vlen, s, err = frameRecord(s); err != nil {
			return nil, s, err
		}
		kvs[i], s = KV{Key: s[:klen], Value: s[klen : klen+vlen]}, s[klen+vlen:]
	}
	return kvs, s, nil
}

// Package pcap is a wirebound golden fixture for the zero-copy decode
// shape: record headers and bodies peeked in place out of a bufio.Reader.
package pcap

import (
	"bufio"
	"encoding/binary"
	"io"
)

const maxFrame = 1 << 16

// PeekUnchecked trusts the header's length straight into Peek.
func PeekUnchecked(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(16)
	if err != nil {
		return nil, err
	}
	wireLen := binary.LittleEndian.Uint32(hdr[8:12])
	return br.Peek(int(wireLen)) // want `wire-derived length wireLen \(from binary\.LittleEndian\.Uint32\(hdr\[8:12\]\)\) reaches bufio\.Peek without a bounds comparison`
}

// PeekBounded caps the length before peeking and discarding.
func PeekBounded(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(16)
	if err != nil {
		return nil, err
	}
	wireLen := binary.LittleEndian.Uint32(hdr[8:12])
	if wireLen > maxFrame {
		return nil, io.ErrUnexpectedEOF
	}
	if _, err := br.Discard(16); err != nil {
		return nil, err
	}
	body, err := br.Peek(int(wireLen))
	if err != nil {
		return nil, err
	}
	_, err = br.Discard(int(wireLen))
	return body, err
}

// SkipUnchecked discards a length assembled from raw peeked bytes.
func SkipUnchecked(br *bufio.Reader) error {
	hdr, err := br.Peek(4)
	if err != nil {
		return err
	}
	skip := int(hdr[0]) | int(hdr[1])<<8
	_, err = br.Discard(skip) // want `wire-derived length skip \(from hdr\[0\]\) reaches bufio\.Discard without a bounds comparison`
	return err
}

// LookupUnchecked indexes a table with a raw peeked byte.
func LookupUnchecked(br *bufio.Reader, table []uint32) (uint32, error) {
	hdr, err := br.Peek(1)
	if err != nil {
		return 0, err
	}
	kind := int(hdr[0])
	return table[kind], nil // want `wire-derived length kind \(from hdr\[0\]\) reaches index expression`
}

package elfcore

import (
	"encoding/binary"
	"fmt"
)

// Validate sanity-checks an ELF core image (tests and tooling).
func Validate(img []byte) error {
	if len(img) < ehSize {
		return fmt.Errorf("elfcore: truncated header")
	}
	if string(img[:4]) != "\x7fELF" {
		return fmt.Errorf("elfcore: bad magic")
	}
	if binary.LittleEndian.Uint16(img[16:]) != etCore {
		return fmt.Errorf("elfcore: not a core file")
	}
	phnum := int(binary.LittleEndian.Uint16(img[56:]))
	phoff := int64(binary.LittleEndian.Uint64(img[32:]))
	for i := 0; i < phnum; i++ {
		off := phoff + int64(i*phSize)
		if off+phSize > int64(len(img)) {
			return fmt.Errorf("elfcore: truncated program headers")
		}
		p := img[off:]
		fileOff := int64(binary.LittleEndian.Uint64(p[8:]))
		size := int64(binary.LittleEndian.Uint64(p[32:]))
		if fileOff+size > int64(len(img)) {
			return fmt.Errorf("elfcore: segment %d out of bounds", i)
		}
	}
	return nil
}

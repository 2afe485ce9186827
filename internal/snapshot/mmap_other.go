//go:build !unix

package snapshot

import "os"

// openMapping reads the whole file into the heap on platforms without
// syscall.Mmap support; the Mapping contract is unchanged.
func openMapping(path string) (*Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}

func munmap([]byte) error { return nil }

// syncDir is a no-op where directories cannot be opened for fsync.
func syncDir(string) error { return nil }

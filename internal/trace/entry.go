package trace

import (
	"os"
	"syscall"
)

// entryBuf is the size of the buffer an entry is read into: a scalar
// entry's 17 bytes fit with room to spare. An entry that fills it (not a
// scalar's) is read again whole.
const entryBuf = 32

// readEntry returns the entry file's bytes. It opens, reads and closes
// the file through syscall: three system calls, without the os.File
// os.ReadFile sets up (poller registration, a stat for the size) for an
// entry that is 17 bytes long. One read suffices: an entry is renamed into place
// whole (putOnce), and a read of a regular file returns fewer bytes than
// asked only at its end. The errors are the calls' own, so a missing
// entry is fs.ErrNotExist.
func readEntry(name string) ([]byte, error) {
	fd, err := syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	buf := make([]byte, entryBuf)
	n, err := syscall.Read(fd, buf)
	for err == syscall.EINTR {
		n, err = syscall.Read(fd, buf)
	}
	syscall.Close(fd)
	if err != nil {
		return nil, err
	}
	if n == len(buf) {
		return os.ReadFile(name)
	}
	return buf[:n], nil
}

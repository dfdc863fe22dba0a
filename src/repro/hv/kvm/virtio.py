"""Virtio ring model (the KVM paravirtual I/O transport).

The property the paper leans on: the rings live in *guest memory* that the
host kernel can address directly, so the backend moves payloads with zero
copies — for receive, the device can land data straight into guest-visible
buffers.  Contrast with Xen's grant-mediated copies in
:mod:`repro.hv.xen.netback`.
"""

from collections import deque

from repro.errors import ProtocolError

DEFAULT_QUEUE_SIZE = 256


class VirtioQueue:
    """One virtqueue: guest posts buffers, backend consumes/fills them."""

    def __init__(self, name, size=DEFAULT_QUEUE_SIZE):
        self.name = name
        self.size = size
        self._avail = deque()
        self._used = deque()
        self.kicks = 0
        self.notifies = 0

    def guest_post(self, buffer):
        """Guest driver: add a buffer (descriptor chain) to the avail ring."""
        if len(self._avail) >= self.size:
            raise ProtocolError("virtqueue %s avail ring full" % self.name)
        self._avail.append(buffer)

    def guest_post_all(self, buffers):
        """Guest driver: add a list of buffers to the avail ring in one go."""
        if len(self._avail) + len(buffers) > self.size:
            raise ProtocolError("virtqueue %s avail ring full" % self.name)
        self._avail.extend(buffers)

    def guest_kick(self):
        """Guest driver: doorbell write (MMIO -> ioeventfd in the host)."""
        self.kicks += 1

    def backend_pop(self):
        """Backend (vhost): take the next posted buffer."""
        if not self._avail:
            raise ProtocolError("virtqueue %s has no available buffers" % self.name)
        return self._avail.popleft()

    def backend_push_used(self, buffer):
        """Backend: return a completed buffer to the used ring."""
        if len(self._used) >= self.size:
            raise ProtocolError("virtqueue %s used ring full" % self.name)
        self._used.append(buffer)
        self.notifies += 1

    def guest_collect_used(self):
        """Guest driver: reap completed buffers."""
        used, self._used = list(self._used), deque()
        return used

    @property
    def avail_count(self):
        return len(self._avail)

    @property
    def used_count(self):
        return len(self._used)


class VirtioNetDevice:
    """A virtio-net device: rx + tx queues bound to one VM."""

    def __init__(self, vm, queue_size=DEFAULT_QUEUE_SIZE):
        self.vm = vm
        self.rx = VirtioQueue("%s.virtio-net.rx" % vm.name, queue_size)
        self.tx = VirtioQueue("%s.virtio-net.tx" % vm.name, queue_size)
        self.refill_rx()

    def refill_rx(self):
        """Guest driver keeps the rx ring stocked with empty buffers."""
        # one dict per buffer: deliver_rx lands each packet in its own
        self.rx.guest_post_all(
            [{"empty": True} for _ in range(self.rx.size - self.rx.avail_count)]
        )

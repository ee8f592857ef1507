#pragma once

#include <memory>
#include <new>
#include <type_traits>

namespace puppies {

/// Constructor tag: size a container without writing its elements. The
/// caller promises to write every element before reading it, so the threads
/// that fill the buffer are the ones that first touch its pages.
struct Uninitialized {};
inline constexpr Uninitialized kUninitialized{};

/// std::allocator whose argument-less construct() default-initializes, so
/// std::vector<T, DefaultInitAllocator<T>>(n) or resize(n) of a trivial T
/// leaves the new elements unwritten. Explicit fills (vector(n, v), assign)
/// still write every element.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace puppies

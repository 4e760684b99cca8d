// FunctionRef: a non-owning, non-allocating reference to a callable.
//
// Two words (object pointer + trampoline), copied by value. Use it for
// callbacks that are only invoked while the call that received them is
// running; the referenced callable must outlive every invocation. A
// default-constructed FunctionRef is empty and tests false.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace ecfrm {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
  public:
    FunctionRef() = default;

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                 std::is_invocable_r_v<R, F&, Args...>)
    FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor): binds like a reference
        : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
          }) {}

    R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

    explicit operator bool() const { return call_ != nullptr; }

  private:
    void* obj_ = nullptr;
    R (*call_)(void*, Args...) = nullptr;
};

}  // namespace ecfrm

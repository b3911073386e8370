// A non-owning, non-allocating reference to a callable: the hot-path
// alternative to `const std::function<...>&` for callbacks that are only
// invoked during the call they are passed to (ring walks, per-pick
// predicates). Constructing one stores two pointers; calling it is one
// indirect call. The referenced callable must outlive every call.
#ifndef FIREWORKS_SRC_BASE_FUNCTION_REF_H_
#define FIREWORKS_SRC_BASE_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace fwbase {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  // Empty: operator bool is false and the reference must not be called.
  FunctionRef() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT: implicit, like std::function.
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        invoke_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return invoke_(object_, std::forward<Args>(args)...); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

}  // namespace fwbase

#endif  // FIREWORKS_SRC_BASE_FUNCTION_REF_H_
